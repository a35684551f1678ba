import math

import numpy as np
import pytest

from conftest import gl_embedding, random_symplectic
from nhsiegel.errors import FormDataError, TailDivergenceError
from nhsiegel.forms import (
    FormPackage,
    FourierExpansion,
    check_invariance,
    evaluate,
    phi,
    slash,
    slash_values,
    tail_bound,
)
from nhsiegel.linalg import MultiIndex, inverse, monomial
from nhsiegel.reps import RepVector, make_rep, norm, norms, rep_matrix
from nhsiegel.samples import SAMPLE_BUILDERS, build_sample, divisor_power_sum, eisenstein4
from nhsiegel.sampling import CHECK_BOX, random_siegel_point, random_siegel_points
from nhsiegel.symplectic import (
    PointBatch,
    SiegelPoint,
    act,
    automorphy_factor,
    inversion,
    translation,
)

# Frozen from the direct 400-term summation oracle below at 50-digit
# precision: E4(i) = 1 + 240 sum sigma_3(m) exp(-2 pi m).
E4_AT_I = 1.4557628922687093


def e4_direct_sum(z: complex, terms: int = 400) -> complex:
    """Independent oracle: brute-force q-series summation."""
    total = complex(1.0)
    for m in range(1, terms + 1):
        total += 240.0 * divisor_power_sum(m, 3) * np.exp(2j * math.pi * m * z)
    return total


def point1(x: float, y: float) -> SiegelPoint:
    return SiegelPoint(np.array([[x]]), np.array([[y]]))


class TestDivisorSums:
    def test_brute_force_values(self):
        assert divisor_power_sum(1, 3) == 1
        assert divisor_power_sum(2, 3) == 9
        assert divisor_power_sum(3, 3) == 28
        assert divisor_power_sum(6, 1) == 12
        assert divisor_power_sum(4, 5) == 1 + 32 + 1024


class TestEvaluate:
    def test_constant(self, constant_package, rng):
        for _ in range(10):
            z = random_siegel_point(1, rng)
            v = evaluate(constant_package.expansion, z)
            assert complex(v.coords[0]) == pytest.approx(2.0 - 1.0j)

    def test_single_q_term(self):
        rep = make_rep(1, 0, 4)
        a = 3.0 + 1.0j
        exp_ = FourierExpansion.from_terms(
            1, 0, 1, rep, 10.0, [(MultiIndex.from_dict(1, {}), [[1]], [a])]
        )
        v = evaluate(exp_, point1(0.0, 1.0))
        assert complex(v.coords[0]) == pytest.approx(a * math.exp(-2 * math.pi))

    def test_e4_at_i_against_oracle(self, e4_package):
        got = complex(evaluate(e4_package.expansion, point1(0.0, 1.0)).coords[0])
        assert got == pytest.approx(E4_AT_I, abs=1e-10)
        assert complex(e4_direct_sum(1j)) == pytest.approx(E4_AT_I, abs=1e-13)

    def test_e4_generic_point_against_oracle(self, e4_package):
        z = 0.37 + 0.9j
        got = complex(evaluate(e4_package.expansion, point1(z.real, z.imag)).coords[0])
        assert got == pytest.approx(complex(e4_direct_sum(z)), abs=1e-10)

    def test_linearity(self, rng):
        rep = make_rep(1, 0, 4)
        b0 = MultiIndex.from_dict(1, {})
        coeffs1 = [(b0, [[m]], [complex(rng.standard_normal())]) for m in range(4)]
        coeffs2 = [(b0, [[m]], [complex(rng.standard_normal())]) for m in range(4)]
        c1, c2 = 1.7, -0.4
        combined = [
            (b0, [[m]], [c1 * coeffs1[m][2][0] + c2 * coeffs2[m][2][0]]) for m in range(4)
        ]
        f1 = FourierExpansion.from_terms(1, 0, 1, rep, 10.0, coeffs1)
        f2 = FourierExpansion.from_terms(1, 0, 1, rep, 10.0, coeffs2)
        fc = FourierExpansion.from_terms(1, 0, 1, rep, 10.0, combined)
        for _ in range(10):
            z = random_siegel_point(1, rng, eig_low=0.3, eig_high=5.0)
            lhs = evaluate(fc, z).coords
            rhs = c1 * evaluate(f1, z).coords + c2 * evaluate(f2, z).coords
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_nearly_holomorphic_term(self, e2star_package):
        # The 1/y part contributes -3/(pi y) exactly.
        z = point1(0.0, 2.0)
        got = complex(evaluate(e2star_package.expansion, z).coords[0])
        q_part = 1.0 - 24.0 * sum(
            divisor_power_sum(m, 1) * math.exp(-4 * math.pi * m) for m in range(1, 21)
        )
        assert got == pytest.approx(q_part - 3.0 / (2.0 * math.pi), abs=1e-14)

    def test_degree_mismatch(self, e4_package, sym2_package):
        z2 = SiegelPoint(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError):
            evaluate(e4_package.expansion, z2)


class TestConstructionGates:
    def test_rejects_indefinite_s(self):
        rep = make_rep(1, 0, 4)
        with pytest.raises(FormDataError, match=r"coefficients\[0\].*positive semidefinite"):
            FourierExpansion.from_terms(
                1, 0, 1, rep, 10.0, [(MultiIndex.from_dict(1, {}), [[-1]], [1.0])]
            )

    def test_rejects_indefinite_s_degree2(self):
        rep = make_rep(2, 0, 2)
        s = [[1, 2], [2, 1]]  # eigenvalues 3, -1
        with pytest.raises(FormDataError, match="positive semidefinite"):
            FourierExpansion.from_terms(
                2, 0, 1, rep, 10.0, [(MultiIndex.from_dict(2, {}), s, [1.0])]
            )

    def test_rejects_asymmetric_s_degree2(self):
        # Guard: the symmetry check of each record.
        rep = make_rep(2, 0, 2)
        with pytest.raises(FormDataError, match="S is not symmetric"):
            FourierExpansion.from_terms(
                2, 0, 1, rep, 10.0, [(MultiIndex.from_dict(2, {}), [[1, 1], [0, 1]], [1.0])]
            )

    def test_rejects_beta_above_degree(self):
        rep = make_rep(1, 0, 2)
        with pytest.raises(FormDataError, match="exceeds near-holomorphy degree"):
            FourierExpansion.from_terms(
                1, 0, 1, rep, 10.0, [(MultiIndex.from_dict(1, {(1, 1): 1}), [[0]], [1.0])]
            )

    def test_rejects_duplicates(self):
        rep = make_rep(1, 0, 4)
        b0 = MultiIndex.from_dict(1, {})
        with pytest.raises(FormDataError, match="duplicate"):
            FourierExpansion.from_terms(
                1, 0, 1, rep, 10.0, [(b0, [[1]], [1.0]), (b0, [[1]], [2.0])]
            )

    def test_truncation_drops_high_trace(self):
        rep = make_rep(1, 0, 4)
        b0 = MultiIndex.from_dict(1, {})
        exp_ = FourierExpansion.from_terms(
            1, 0, 1, rep, 2.0, [(b0, [[m]], [1.0]) for m in range(6)]
        )
        traces = sorted(int(s[0][0]) for _, s, _ in exp_.terms())
        assert traces == [0, 1, 2]

    def test_retruncation(self):
        smaller = eisenstein4(t_max=5.0).expansion
        assert len(smaller.coefficients) == 6
        assert smaller.t_max == 5.0

    @pytest.mark.parametrize("t_max", [math.inf, math.nan])
    def test_rejects_non_finite_truncation_bound(self, t_max):
        # No level is the last one below such a bound, and no tail follows it.
        with pytest.raises(FormDataError, match="truncation bound must be finite"):
            eisenstein4(t_max=t_max)

    def test_rejects_truncation_bound_overflowing_at_its_level(self):
        # 1e308 is finite, but level 2 times it is not.
        rep = make_rep(1, 0, 4)
        b0 = MultiIndex.from_dict(1, {})
        with pytest.raises(FormDataError, match="truncation bound 1e\\+308 overflows at level 2"):
            FourierExpansion.from_terms(1, 0, 2, rep, 1e308, [(b0, [[0]], [1.0])])

    def test_retruncation_just_below_a_level(self):
        # Guard: a bound just below level 5 keeps the levels up to 4.
        kept = eisenstein4(t_max=4.9999999999).expansion
        assert sorted(int(s[0, 0]) for _, s, _ in kept.terms()) == [0, 1, 2, 3, 4]

    def test_raw_constructor_enforces_invariants(self):
        rep = make_rep(1, 0, 4)
        b0 = MultiIndex.from_dict(1, {})
        with pytest.raises(FormDataError, match="positive semidefinite"):
            FourierExpansion(
                n=1, p=0, level=1, rep=rep, t_max=5.0,
                coefficients={(b0, ((-1,),)): np.array([1.0 + 0.0j])},
            )
        with pytest.raises(FormDataError, match="truncation bound"):
            FourierExpansion(
                n=1, p=0, level=1, rep=rep, t_max=5.0,
                coefficients={(b0, ((9,),)): np.array([1.0 + 0.0j])},
            )
        with pytest.raises(FormDataError, match="beta degree"):
            FourierExpansion(
                n=1, p=0, level=1, rep=rep, t_max=5.0,
                coefficients={
                    (MultiIndex.from_dict(1, {(1, 1): 1}), ((0,),)): np.array([1.0 + 0.0j])
                },
            )

    def test_both_constructors_reject_keys_that_round_together(self):
        # S = 1 and S = 1.0000000001 round to the same integral N*S: the raw
        # constructor must not keep only the later value, as from_terms
        # does not.
        rep = make_rep(1, 0, 4)
        b0 = MultiIndex.from_dict(1, {})
        terms = [(b0, ((1,),), [1.0]), (b0, ((1.0000000001,),), [2.0])]
        with pytest.raises(FormDataError, match=r"coefficients\[1\]: duplicate \(beta, S\) record"):
            FourierExpansion.from_terms(1, 0, 1, rep, 5.0, terms)
        with pytest.raises(FormDataError, match=r"coefficient key .*: duplicate \(beta, S\) record"):
            FourierExpansion(
                n=1, p=0, level=1, rep=rep, t_max=5.0,
                coefficients={(beta, s): np.array(v, dtype=complex) for beta, s, v in terms},
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite_values(self, bad):
        # A NaN coefficient would pass every later check: NaN > bound is false.
        rep = make_rep(1, 0, 4)
        b0 = MultiIndex.from_dict(1, {})
        terms = [(b0, [[0]], [1.0]), (b0, [[1]], [bad])]
        with pytest.raises(FormDataError, match=r"coefficients\[1\].*non-finite"):
            FourierExpansion.from_terms(1, 0, 1, rep, 10.0, terms)
        with pytest.raises(FormDataError, match=r"coefficient key.*non-finite"):
            FourierExpansion(
                n=1, p=0, level=1, rep=rep, t_max=5.0,
                coefficients={(b0, ((1,),)): np.array([bad], dtype=complex)},
            )

    def test_growth_gate_rejects(self):
        rep = make_rep(1, 0, 4)
        b0 = MultiIndex.from_dict(1, {})
        exp_ = FourierExpansion.from_terms(1, 0, 1, rep, 10.0, [(b0, [[1]], [100.0])])
        with pytest.raises(FormDataError, match="exceeds declared growth bound"):
            FormPackage(exp_, growth_a=1.0, growth_kappa=0.0)

    def test_overflowing_growth_bound_names_kappa(self, e4_package):
        with pytest.raises(FormDataError, match=r"kappa=1e\+308 overflows the growth bound"):
            FormPackage(e4_package.expansion, growth_a=300.0, growth_kappa=1e308)


class TestSlash:
    def test_identity_slash(self, e4_package, rng):
        from nhsiegel.symplectic import SymplecticMatrix

        ev = slash(e4_package, SymplecticMatrix(np.eye(2)))
        for _ in range(5):
            z = random_siegel_point(1, rng, eig_low=0.5, eig_high=5.0)
            lhs = ev(z).coords
            rhs = evaluate(e4_package.expansion, z).coords
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_composition(self, sym2_package, rng):
        # The cocycle identity: rho(C_2 Z + D_2)^{-1} (F|g1)(g2 Z) = (F|g1 g2)(Z).
        rep = sym2_package.rep
        for _ in range(20):
            g1 = random_symplectic(2, rng)
            g2 = random_symplectic(2, rng)
            z = random_siegel_point(2, rng, eig_low=0.2, eig_high=5.0)
            j_inv = rep_matrix(rep, np.linalg.inv(automorphy_factor(g2, z)))
            lhs = RepVector(rep, j_inv @ slash_values(sym2_package, g1.mat, act(g2, z).batch)[0])
            rhs = RepVector(rep, slash_values(sym2_package, (g1 @ g2).mat, z.batch)[0])
            assert norm(lhs - rhs) <= 1e-9 * (1.0 + norm(rhs))

    def test_e4_inversion_at_i(self, e4_package):
        # i is fixed by the inversion and the factor is i^{-4} = 1.
        ev = slash(e4_package, inversion(1))
        z = point1(0.0, 1.0)
        dev = abs(complex(ev(z).coords[0]) - complex(evaluate(e4_package.expansion, z).coords[0]))
        assert dev <= 1e-8

    def test_gl_block_orientation(self, sym2_package):
        # For g = (u 0; 0 u^-T) the factor is u^-T, so the slashed value is
        # rho(u^T) F(u Z u^T).  Pins the inverse/transpose conventions.
        from nhsiegel.reps import apply as rep_apply

        u = np.array([[1.0, 2.0], [0.0, 1.0]])
        z = SiegelPoint(np.array([[0.1, 0.0], [0.0, -0.2]]), 1.5 * np.eye(2))
        lhs = slash(sym2_package, gl_embedding(u))(z)
        m = u @ z.mat @ u.T
        moved = SiegelPoint(m.real, m.imag)
        rhs = rep_apply(
            sym2_package.rep, u.T, evaluate(sym2_package.expansion, moved)
        )
        np.testing.assert_allclose(lhs.coords, rhs.coords, atol=1e-10)


class TestInvariance:
    @pytest.mark.parametrize("name", sorted(SAMPLE_BUILDERS))
    def test_unit_translations_exact_at_level_one(self, name):
        # Why invariance_gammas samples no translation at level 1: the keys
        # are integral, so F(Z + B) = F(Z) to rounding for every unit B.
        package = build_sample(name)
        n, rep = package.n, package.rep
        points = random_siegel_points(n, np.random.default_rng(0), 1000, *CHECK_BOX)
        base = evaluate(package.expansion, points)
        for i, j in zip(*np.triu_indices(n)):
            b = np.zeros((n, n))
            b[i, j] = b[j, i] = 1.0
            devs = norms(rep, slash_values(package, translation(b).mat, points) - base)
            assert np.all(devs <= 1e-14 * (1.0 + norms(rep, base)))

    def test_e4_inversion_on_arc(self, e4_package, rng):
        # Points on the unit circle arc with y >= sqrt(3)/2.
        samples = []
        for theta in np.linspace(1.1, math.pi - 1.1, 25):
            samples.append(point1(math.cos(theta), math.sin(theta)))
        report = check_invariance(e4_package, samples)
        assert report.max_deviation <= 1e-6
        assert report.violations == 0

    def test_low_samples_rejected(self, e4_package):
        with pytest.raises(ValueError, match="identity/2"):
            check_invariance(e4_package, [point1(0.0, 0.3)])

    def test_non_modular_data_flagged(self, sym2_package, rng):
        # Negative control: the synthetic degree-2 set satisfies no
        # transformation law, so the checker must report violations.
        samples = [
            random_siegel_point(2, rng, eig_low=0.8, eig_high=3.0, x_scale=1.0)
            for _ in range(10)
        ]
        report = check_invariance(sym2_package, samples)
        assert report.violations > 0
        assert report.max_deviation > report.threshold


class TestTailBound:
    def test_zero_growth_constant(self, zero_package):
        assert tail_bound(zero_package, np.array([[1.0]])) == 0.0

    def test_monotone_in_y(self, e4_package):
        y = np.array([[1.5]])
        assert tail_bound(e4_package, 2.0 * y) <= tail_bound(e4_package, y)

    def test_dominates_true_tail(self, e4_package):
        # Long-summation oracle for the dropped terms at y = 1.
        y = 1.0
        true_tail = sum(
            240.0 * divisor_power_sum(m, 3) * math.exp(-2 * math.pi * m * y)
            for m in range(21, 201)
        )
        assert tail_bound(e4_package, np.array([[y]])) >= true_tail

    def test_counts_the_first_dropped_level(self, e4_package):
        # A bound just below level 5 drops the level-5 term, so the tail
        # must start there: it covers the terms of levels 5 to 20.
        package = eisenstein4(t_max=4.9999999999)
        z = point1(0.0, 0.8660254)
        dropped = evaluate(e4_package.expansion, z).coords - evaluate(package.expansion, z).coords
        assert tail_bound(package, z.Y) >= abs(dropped[0])

    def test_divergence_error(self, e4_package):
        with pytest.raises(ValueError, match=r"^tail estimate requires positive definite Y \(min eigenvalue -1\.000e\+00\)$"):
            tail_bound(e4_package, np.array([[-1.0]]))

    @pytest.mark.parametrize(
        "a_const, kappa, y",
        [(300.0, 200.0, 1.0), (1e307, 3.0, 1.0), (1e307, 3.0, 200.0)],
        ids=["kappa", "A", "A-large-Y"],
    )
    def test_overflowing_term_is_divergence(self, e4_package, a_const, kappa, y):
        # A raised power that overflows, a product that becomes inf, and
        # one that becomes inf * exp(-c m) = inf * 0 = NaN.
        package = FormPackage(e4_package.expansion, growth_a=a_const, growth_kappa=kappa)
        with pytest.raises(TailDivergenceError, match="overflows a float"):
            tail_bound(package, np.array([[y]]))

    def test_rejects_y_of_another_degree(self, e4_package, sym2_package):
        with pytest.raises(ValueError, match=r"Y of shape \(2, 2\) does not match form degree 1"):
            tail_bound(e4_package, np.eye(2))
        with pytest.raises(ValueError, match=r"Y of shape \(3, 1, 1\) does not match form degree 1"):
            tail_bound(e4_package, np.ones((3, 1, 1)))
        with pytest.raises(ValueError, match=r"Y of shape \(1, 1\) does not match form degree 2"):
            tail_bound(sym2_package, np.eye(1))


@pytest.fixture
def y_inv_calls(monkeypatch):
    """Record the batch size of every PointBatch.y_inv computed."""
    calls, original = [], PointBatch.y_inv.fget

    def counting(batch):
        calls.append(len(batch))
        return original(batch)

    monkeypatch.setattr(PointBatch, "y_inv", property(counting))
    return calls


def several_beta_expansion():
    # Three beta of positive degree besides beta = 0, on the weight-2 space.
    beta = [MultiIndex.from_dict(1, {(1, 1): b}) for b in range(4)]
    terms = [(beta[b], [[m]], [1.0 / (1 + b + m)]) for b in range(4) for m in range(3)]
    return FourierExpansion.from_terms(1, 3, 1, make_rep(1, 0, 2), 5.0, terms)


class TestInverseImaginaryPart:
    """Y^{-1} is formed only for a stored beta of positive degree, and then
    once per call however many such beta there are."""

    @pytest.mark.parametrize("name", ["e4_package", "e6_package"])
    def test_holomorphic_forms_form_none(self, name, request, rng, y_inv_calls):
        package = request.getfixturevalue(name)
        z = random_siegel_point(1, rng)
        batch = PointBatch.from_points([random_siegel_point(1, rng) for _ in range(7)])
        for arg in (z, batch):
            evaluate(package.expansion, arg)
            phi(package, arg)
        assert y_inv_calls == []

    @pytest.mark.parametrize("name", ["e2star_package", "sym2_package", "several_beta"])
    def test_forms_with_inverse_terms_form_it_once(self, name, request, rng, y_inv_calls):
        if name == "several_beta":
            package = several_beta_expansion()
        else:
            package = request.getfixturevalue(name)
        n = package.n
        expansion = getattr(package, "expansion", package)

        # A fresh point or batch for each call: a point keeps the values last
        # summed at it, and phi there right after evaluate forms no Y^{-1}.
        def z():
            return random_siegel_point(n, rng)

        def batch():
            return PointBatch.from_points([random_siegel_point(n, rng) for _ in range(7)])

        for call, size in [
            (lambda: evaluate(expansion, z()), 1),
            (lambda: evaluate(expansion, batch()), 7),
            (lambda: phi(package, z()), 1),
            (lambda: phi(package, batch()), 7),
        ]:
            y_inv_calls.clear()
            call()
            assert y_inv_calls == [size]


class TestPhi:
    def test_constant_trivial_rep(self, constant_package, rng):
        expected = abs(2.0 - 1.0j)
        for _ in range(5):
            z = random_siegel_point(1, rng)
            assert phi(constant_package, z) == pytest.approx(expected)

    def test_scalar_weight_formula(self, e4_package, rng):
        for _ in range(20):
            z = random_siegel_point(1, rng, eig_low=0.2, eig_high=5.0)
            y = float(z.Y[0, 0])
            f = abs(complex(evaluate(e4_package.expansion, z).coords[0]))
            assert phi(e4_package, z) == pytest.approx(y ** 2 * f, rel=1e-12)

    def test_e4_at_i(self, e4_package):
        assert phi(e4_package, point1(0.0, 1.0)) == pytest.approx(E4_AT_I, abs=1e-10)


class TestKoecherBoundedness:
    @staticmethod
    def _grid_sup(package, nx, ny):
        sup = 0.0
        for x in np.linspace(-0.5, 0.5, nx):
            for y in np.linspace(1.0, 10.0, ny):
                v = evaluate(package.expansion, point1(float(x), float(y)))
                sup = max(sup, norm(v))
        return sup

    @pytest.mark.parametrize("pkg_name", ["e4_package", "e2star_package"])
    def test_sup_stable_under_refinement(self, pkg_name, request):
        package = request.getfixturevalue(pkg_name)
        coarse = self._grid_sup(package, 33, 31)   # ~1e3 samples
        fine = self._grid_sup(package, 101, 99)    # ~1e4 samples
        assert math.isfinite(coarse)
        assert fine - coarse < 1e-6

    def test_e4_near_constant_high_up(self, e4_package, rng):
        # Far up the vertical region the series collapses to its constant
        # term; certify with the stored-term bound plus the tail bound.
        for _ in range(50):
            y = float(rng.uniform(10.0, 50.0))
            x = float(rng.uniform(-0.5, 0.5))
            val = complex(evaluate(e4_package.expansion, point1(x, y)).coords[0])
            stored = sum(
                240.0 * divisor_power_sum(m, 3) * math.exp(-2 * math.pi * m * y)
                for m in range(1, 21)
            )
            certificate = stored + tail_bound(e4_package, np.array([[y]]))
            assert certificate <= 1e-8
            assert abs(val - 1.0) <= certificate + 1e-15


class TestMajorantConsistency:
    def test_every_term_below_majorant(self, e4_package, e2star_package, rng):
        for package in (e4_package, e2star_package):
            exp_ = package.expansion
            for _ in range(20):
                y = np.array([[float(np.exp(rng.uniform(-1, 2)))]])
                majorant = {}
                for beta, s, vec in exp_.terms():
                    r = majorant.get(beta, 0.0)
                    majorant[beta] = r + float(np.sqrt(np.sum(np.abs(vec) ** 2))) * math.exp(
                        -2 * math.pi * float(np.trace(s @ y))
                    )
                for beta, s, vec in exp_.terms():
                    term = float(np.sqrt(np.sum(np.abs(vec) ** 2))) * math.exp(
                        -2 * math.pi * float(np.trace(s @ y))
                    )
                    assert term <= majorant[beta] * (1.0 + 1e-12)


class TestVectorValued:
    def test_sym2_evaluation_shape(self, sym2_package, rng):
        z = random_siegel_point(2, rng, eig_low=0.5, eig_high=5.0)
        v = evaluate(sym2_package.expansion, z)
        assert v.coords.shape == (3,)

    def test_sym2_nearly_holomorphic_term(self, sym2_package):
        # The beta = (1,2) term scales with the off-diagonal of Y^{-1}.
        y = np.array([[2.0, 0.3], [0.3, 1.0]])
        z = SiegelPoint(np.zeros((2, 2)), y)
        yinv = inverse(y)
        direct = np.zeros(3, dtype=complex)
        for b, s, vec in sym2_package.expansion.terms():
            phase = np.exp(2j * math.pi * np.sum(s * z.mat))
            direct += vec * phase * monomial(yinv, b)
        got = evaluate(sym2_package.expansion, z)
        np.testing.assert_allclose(got.coords, direct, atol=1e-12)

    def test_slash_changes_values(self, sym2_package):
        # The synthetic set satisfies no transformation law, so slashing by
        # the inversion must actually move values.
        z = SiegelPoint(np.zeros((2, 2)), 1.3 * np.eye(2))
        base = evaluate(sym2_package.expansion, z)
        moved = slash(sym2_package, inversion(2))(z)
        assert norm(moved - base) > 1e-3
