import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

from nhsiegel import growth
from nhsiegel.forms import phi
from nhsiegel.growth import (
    SweepConfig,
    corollary_rhs,
    estimate_constant,
    group_blocks,
    lift,
    sturm_rhs,
    verify_growth_bound,
    verify_moderate_growth,
)
from nhsiegel.linalg import inverse
from nhsiegel.reps import basis_vector, inner, make_rep, norm, vector
from nhsiegel.samples import SAMPLE_BUILDERS, build_sample
from nhsiegel.sampling import (
    random_compact,
    random_group_samples,
    random_siegel_point,
    random_siegel_points,
    random_unitary,
)
from nhsiegel.symplectic import (
    SiegelPoint,
    SymplecticMatrix,
    automorphy_factor,
    compact_from_unitary,
    from_point,
)


class TestSturmRhs:
    def test_identity(self):
        for n in (1, 2, 3):
            assert sturm_rhs(np.eye(n), 4) == pytest.approx(2.0 ** n)

    def test_degree_one(self):
        assert sturm_rhs(np.array([[4.0]]), 4) == pytest.approx(16.0625)

    def test_diagonal(self):
        assert sturm_rhs(np.diag([4.0, 1.0]), 2) == pytest.approx(8.5)

    def test_inverse_symmetry(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            a = rng.uniform(-2, 2, size=(n, n))
            y = a @ a.T + 0.1 * np.eye(n)
            for lam in (2, 4, 6):
                assert abs(sturm_rhs(y, lam) - sturm_rhs(inverse(y), lam)) <= 1e-10 * sturm_rhs(y, lam)

    def test_needs_posdef(self):
        with pytest.raises(ValueError, match=r"^imaginary part is not positive definite \(min eigenvalue -1\.000e\+00\)$"):
            sturm_rhs(np.diag([1.0, -1.0]), 2)


class TestCorollaryRhs:
    def test_identity_2(self):
        assert corollary_rhs(np.eye(2), 2) == pytest.approx(81.0)

    def test_degree_one(self):
        assert corollary_rhs(np.array([[1.0]]), 4) == pytest.approx(16.0)

    def test_dominates_sturm(self, rng):
        # max(1, 2^(1-l))^n (1 + Tr Y)^(n l) (det Y)^(-l/2) >= prod (mu^(l/2) +
        # mu^(-l/2)), which is why a constant certified for the eigenvalue
        # bound, times that factor, certifies the trace form.  The factor is
        # 1 for l >= 1; at l = 0 the trace form is 1 and the eigenvalue
        # bound 2^n.
        for _ in range(200):
            n = int(rng.integers(1, 4))
            a = rng.uniform(-2, 2, size=(n, n))
            y = a @ a.T + np.exp(rng.uniform(-2, 2)) * np.eye(n)
            for lam in (0, 1, 2, 4):
                factor = max(1.0, 2.0 ** (1 - lam)) ** n
                assert factor * corollary_rhs(y, lam) >= sturm_rhs(y, lam) * (1.0 - 1e-12)
        assert corollary_rhs(np.eye(2), 0) == 1.0 and sturm_rhs(np.eye(2), 0) == 4.0


class TestElementaryInequality:
    def test_frozen_example(self):
        # (1 + 2^2)(1 + 3^2) = 50 and (1 + 2 + 3)^4 = 1296.
        ys = (2.0, 3.0)
        lam = 2
        lhs = math.prod(1.0 + y ** lam for y in ys)
        rhs = (1.0 + sum(ys)) ** (len(ys) * lam)
        assert lhs == 50.0
        assert rhs == 1296.0
        assert lhs <= rhs

    def test_random_tuples(self, rng):
        # 1 + y^l <= max(1, 2^(1-l)) (1 + y)^l for every l >= 0; the factor
        # is 1 for l >= 1, and below that it carries the product inequality
        # down to lambda1 = 0.
        for _ in range(2000):
            n = int(rng.integers(1, 5))
            ys = np.exp(rng.uniform(-4, 4, size=n))
            for lam in (0, 0.5, 1, 2, 3, 4, 5, 6):
                lhs = float(np.prod(1.0 + ys ** lam))
                rhs = max(1.0, 2.0 ** (1 - lam)) ** n * (1.0 + float(np.sum(ys))) ** (n * lam)
                assert lhs <= rhs * (1.0 + 1e-12)

    def test_moderate_chain(self, rng):
        # prod_i (mu_i^s + mu_i^-s) <= max(1, 2^(1-s))^n n^(-ns) Tr(g^T g)^(ns)
        # for g = from_point(Z) k, whose Y = Im(g . iI) has eigenvalues mu_i.
        for _ in range(300):
            n = int(rng.integers(1, 4))
            z = random_siegel_point(n, rng)
            g = (from_point(z) @ random_compact(n, rng)).mat
            for lam in range(0, 7):
                s = lam / 2.0
                factor = max(1.0, 2.0 ** (1 - s)) ** n * float(n) ** (-n * s)
                bound = factor * float(np.sum(g * g)) ** (n * s)
                assert sturm_rhs(z.Y, lam) <= bound * (1.0 + 1e-9)


class TestEstimateConstant:
    def test_constant_form(self, constant_package):
        # phi is constant and the eigenvalue bound is exactly 2 in degree 1,
        # so the estimate is safety * |v0| / 2.
        c = estimate_constant(constant_package, SweepConfig(samples=50, seed=3))
        assert c == pytest.approx(1.25 * abs(2.0 - 1.0j) / 2.0, rel=1e-12)

    def test_zero_form(self, zero_package):
        assert estimate_constant(zero_package, SweepConfig(samples=20, seed=3)) == 0.0

    def test_stability_under_doubling(self, e4_package):
        c1 = estimate_constant(e4_package, SweepConfig(samples=500, seed=11))
        c2 = estimate_constant(e4_package, SweepConfig(samples=1000, seed=12))
        assert c2 == pytest.approx(c1, rel=0.05)
        assert c1 > 0


class TestVerifyGrowthBound:
    def test_report_names_the_factor(self, constant_package, e4_package):
        # The corollary constant is C max(1, 2^(1-lambda1))^n: 2C for the
        # constant form (lambda1 = 0), C for e4 (lambda1 = 4).
        config = SweepConfig(samples=200, seed=6)
        for package, factor in ((constant_package, 2.0), (e4_package, 1.0)):
            c = estimate_constant(package, config)
            for kind, f in (("theorem", 1.0), ("corollary", factor)):
                report = verify_growth_bound(package, c, kind, config=config)
                assert (report.theorem_constant, report.factor) == (c, f)
                assert report.constant == c * f
                assert report.passed

    def test_zero_form_never_violates(self, zero_package):
        report = verify_growth_bound(
            zero_package, 1.0, "theorem", config=SweepConfig(samples=100, seed=5)
        )
        assert report.violations == 0
        assert report.worst_ratio == 0.0

    def test_e4_end_to_end(self, e4_package):
        c = estimate_constant(e4_package, SweepConfig(samples=1000, seed=21))
        report = verify_growth_bound(
            e4_package, c, "theorem", config=SweepConfig(samples=1000, seed=22)
        )
        assert report.passed
        assert report.kind == "theorem"
        assert report.samples == 1000

    def test_negative_control(self, e4_package):
        report = verify_growth_bound(
            e4_package, 1e-6, "theorem", config=SweepConfig(samples=200, seed=23)
        )
        assert report.violations > 0
        assert not report.passed
        assert report.worst_point  # witness recorded

    def test_corollary_kind(self, e2star_package):
        c = estimate_constant(e2star_package, SweepConfig(samples=500, seed=31))
        report = verify_growth_bound(
            e2star_package, c, "corollary", config=SweepConfig(samples=500, seed=32)
        )
        assert report.passed

    def test_unknown_kind(self, e4_package):
        with pytest.raises(ValueError):
            verify_growth_bound(e4_package, 1.0, "sharpest")

    def test_report_dict_fields(self, zero_package):
        report = verify_growth_bound(
            zero_package, 1.0, "theorem", config=SweepConfig(samples=10, seed=1)
        )
        d = report.to_dict()
        assert set(d) == {
            "kind",
            "constant",
            "theorem_constant",
            "factor",
            "exponent_r",
            "samples",
            "violations",
            "worst_ratio",
            "worst_point",
            "config",
        }
        assert d["config"]["delta"] == pytest.approx(math.sqrt(3) / 2)
        # A drawn sweep's config names every setting, the sampling box included.
        assert set(d["config"]) == {
            "samples",
            "seed",
            "safety",
            "ratio_tol",
            "eig_low",
            "eig_high",
            "x_scale",
            "delta",
            "t_max",
        }
        box = (d["config"]["eig_low"], d["config"]["eig_high"], d["config"]["x_scale"])
        assert box == (0.01, 100.0, 5.0)


class TestLift:
    def test_identity_is_base_value(self, e4_package):
        from nhsiegel.forms import evaluate

        v = lift(e4_package, SymplecticMatrix(np.eye(2)))
        base = evaluate(e4_package.expansion, SiegelPoint.base_point(1))
        np.testing.assert_allclose(v.coords, base.coords, atol=1e-12)

    def test_matches_phi_on_sections(self, e4_package, sym2_package, rng):
        for package, n in [(e4_package, 1), (sym2_package, 2)]:
            for _ in range(50):
                z = random_siegel_point(n, rng, eig_low=0.1, eig_high=10.0)
                val = norm(lift(package, from_point(z)))
                expected = phi(package, z)
                assert val == pytest.approx(expected, rel=1e-9)

    def test_compact_factor_is_unitary(self, rng):
        # J(k, i*identity) = A - iB for k = (A B; -B A), and it is unitary.
        for n in (1, 2):
            for _ in range(20):
                u = random_unitary(n, rng)
                k = compact_from_unitary(u)
                j = automorphy_factor(k, SiegelPoint.base_point(n))
                np.testing.assert_allclose(j, u.conj(), atol=1e-12)
                np.testing.assert_allclose(j @ j.conj().T, np.eye(n), atol=1e-12)

    def test_right_compact_invariance(self, e4_package, rng):
        for _ in range(50):
            z = random_siegel_point(1, rng)
            k = random_compact(1, rng)
            g = from_point(z)
            a = norm(lift(e4_package, g @ k))
            b = norm(lift(e4_package, g))
            assert abs(a - b) <= 1e-9 * max(b, 1e-300)


class TestModerateGrowth:
    def test_zero_form(self, zero_package):
        w0 = basis_vector(zero_package.rep, 0)
        report = verify_moderate_growth(
            zero_package, w0, 1.0, config=SweepConfig(samples=50, seed=41)
        )
        assert report.violations == 0

    def test_e4_sweep(self, e4_package):
        c = estimate_constant(e4_package, SweepConfig(samples=500, seed=42))
        w0 = basis_vector(e4_package.rep, 0)
        report = verify_moderate_growth(
            e4_package, w0, c, config=SweepConfig(samples=500, seed=43)
        )
        assert report.passed
        assert report.kind == "moderate-growth"
        assert report.exponent_r == 2.0

    def test_ray_sweep(self, e4_package):
        c = estimate_constant(e4_package, SweepConfig(samples=500, seed=44))
        w0 = basis_vector(e4_package.rep, 0)
        rays = [
            SymplecticMatrix(np.diag([float(t), 1.0 / t])) for t in (2, 4, 8, 16, 32, 64)
        ]
        report = verify_moderate_growth(e4_package, w0, c, elements=rays)
        assert report.violations == 0
        assert report.samples == 6

    def test_given_elements_config(self, e4_package):
        # Nothing is drawn and the constant is not scaled by safety, so the
        # config keeps only the fields that applied.
        w0 = basis_vector(e4_package.rep, 0)
        rays = [SymplecticMatrix(np.diag([float(t), 1.0 / t])) for t in (2, 4, 8, 16, 32)]
        report = verify_moderate_growth(e4_package, w0, 1.0, elements=rays)
        assert report.samples == 5
        assert set(report.config) == {"ratio_tol", "delta", "t_max"}

    def test_no_elements(self, e4_package):
        # Guard: an empty element list is not a sweep.
        w0 = basis_vector(e4_package.rep, 0)
        with pytest.raises(ValueError, match="a sweep needs at least one sample"):
            verify_moderate_growth(e4_package, w0, 1.0, elements=[])

    @pytest.mark.parametrize(
        "name, factor",
        [("constant_package", 2.0), ("e4_package", 1.0), ("sym2_package", 2.0 ** -4)],
    )
    def test_constant_by_proof(self, request, name, factor):
        # ||w0|| C max(1, 2^(1-s))^n n^(-ns), s = lambda1 / 2, with no safety
        # factor: lambda1 = 0 and n = 1 give 2, sym2 (n = 2, lambda1 = 4)
        # gives 2^-4.
        package = request.getfixturevalue(name)
        c = estimate_constant(package, SweepConfig(samples=300, seed=46))
        w0 = basis_vector(package.rep, 0)
        report = verify_moderate_growth(package, w0, c, config=SweepConfig(samples=300, seed=47))
        assert (report.theorem_constant, report.factor) == (c, factor)
        assert report.constant == pytest.approx(norm(w0) * c * factor, rel=1e-15)
        assert report.passed

    def test_exponent_floor(self):
        # Every bundled form is swept at the certified exponent
        # r = n lambda1 / 2, which cannot be set: each right-hand side is
        # the constant times Tr(g^T g)^r at that r.
        assert "r" not in inspect.signature(verify_moderate_growth).parameters
        for name in SAMPLE_BUILDERS:
            package = build_sample(name)
            w0 = basis_vector(package.rep, 0)
            r = package.n * package.lambda1 / 2.0
            config = SweepConfig(samples=20, seed=3)
            report = verify_moderate_growth(package, w0, 1.0, config=config)
            assert report.exponent_r == r
            traces = np.sum(report.records.where**2, axis=(1, 2))
            np.testing.assert_allclose(report.records.rhs, report.constant * traces**r, rtol=1e-14)
            with pytest.raises(TypeError):
                verify_moderate_growth(package, w0, 1.0, r=r)

    @pytest.mark.parametrize("n", [1, 2])
    def test_trace_is_at_least_2n(self, n):
        # The eigenvalues of g^T g come in pairs t, 1/t, so Tr(g^T g) >= 2n
        # > 1 on Sp(2n, R): at a given constant, a ratio at any r above
        # n lambda1 / 2 is at most the ratio there.
        gs = random_group_samples(n, np.random.default_rng(50 + n), 2000)
        assert np.sum(gs * gs, axis=(1, 2)).min() >= 2 * n * (1.0 - 1e-12)

    def test_cauchy_schwarz_step(self, sym2_package, rng):
        for _ in range(50):
            z = random_siegel_point(2, rng, eig_low=0.2, eig_high=5.0)
            g = from_point(z) @ random_compact(2, rng)
            w0 = vector(
                sym2_package.rep,
                rng.standard_normal(3) + 1j * rng.standard_normal(3),
            )
            v = lift(sym2_package, g)
            assert abs(inner(v, w0)) <= norm(w0) * norm(v) * (1.0 + 1e-12)

    def test_group_samples_are_symplectic(self):
        from nhsiegel.symplectic import is_symplectic

        for block in group_blocks(2, SweepConfig(samples=10, seed=45)):
            for g in block:
                assert is_symplectic(g)

    @pytest.mark.parametrize(
        "name, coords",
        [
            ("e4_package", [1.0]),
            ("sym2_package", [1.0, 0.0, 0.0]),
            ("sym2_package", [0.5, 1.0, -0.25]),
        ],
    )
    def test_tiny_w0_scales_the_report(self, request, name, coords):
        # ||w0|| is formed from w0 over its largest entry, so a w0 whose
        # squared norm underflows still gives the report of the unscaled w0,
        # with the constant scaled along.
        package = request.getfixturevalue(name)
        c = estimate_constant(package, SweepConfig(samples=200, seed=47))
        config = SweepConfig(samples=100, seed=48)
        unit, tiny = (
            verify_moderate_growth(package, vector(package.rep, w0), c, config=config)
            for w0 in (coords, np.multiply(1e-200, coords))
        )
        assert unit.passed
        assert tiny.constant == pytest.approx(unit.constant * 1e-200, rel=1e-15)
        assert tiny.worst_ratio == pytest.approx(unit.worst_ratio, rel=1e-12)
        np.testing.assert_array_equal(tiny.records.where, unit.records.where)
        np.testing.assert_allclose(tiny.records.ratio, unit.records.ratio, rtol=1e-12)
        for key in ("kind", "exponent_r", "samples", "violations", "worst_point", "config"):
            assert getattr(tiny, key) == getattr(unit, key)

    @pytest.mark.parametrize("c", [1e-310, 1e-200, 0.5, 3.0, 1e300, 1e307, 1e308])
    def test_ratios_do_not_depend_on_the_scale_of_w0(self, e4_package, c):
        # The sweep runs on w0 over its largest |entry|: a w0 whose norm or
        # products underflow or overflow gives the ratios of w0 = 1, with
        # the constant scaled along.
        one, scaled = (
            verify_moderate_growth(e4_package, vector(e4_package.rep, [w]), 1.25)
            for w in (1.0, c)
        )
        assert scaled.worst_ratio == one.worst_ratio > 0.0
        assert scaled.violations == one.violations
        assert scaled.constant == c * one.constant
        np.testing.assert_array_equal(scaled.records.ratio, one.records.ratio)

    def test_w0_of_another_rep_rejected_before_any_draw(self, sym2_package, monkeypatch):
        # A dimension-1 w0 would broadcast against the form's 3 coordinates.
        def no_draws(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(growth, "group_blocks", no_draws)
        w0 = basis_vector(make_rep(2, 0, 2), 0)
        with pytest.raises(ValueError, match="w0 is in"):
            verify_moderate_growth(sym2_package, w0, 1.0, config=SweepConfig(samples=20))

    @pytest.mark.parametrize("name", ["e4_package", "sym2_package"])
    def test_zero_w0_rejected(self, request, name):
        # For w0 = 0 both sides of the inequality vanish: nothing is checked.
        package = request.getfixturevalue(name)
        w0 = vector(package.rep, [0.0] * package.rep.dim)
        with pytest.raises(ValueError, match="w0 must be non-zero"):
            verify_moderate_growth(package, w0, 1.0, config=SweepConfig(samples=5))


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(samples=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("samples", 2.5),
            ("seed", 1.5),
            ("seed", -1),
            ("seed", "1"),
        ],
    )
    def test_rejects_bad_sampling_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepConfig(**{field: value})

    def test_integral_counts_stored_as_int(self):
        config = SweepConfig(samples=np.int64(300), seed=2.0)
        assert (type(config.samples), type(config.seed)) == (int, int)
        assert (config.samples, config.seed) == (300, 2)

    def test_fields(self):
        assert [f.name for f in fields(SweepConfig)] == ["samples", "seed"]

    def test_accepts_degenerate_ranges(self, e4_package):
        # The sampling box is an argument of the samplers, not a config
        # field; a degenerate one (one eigenvalue, X = 0) still draws valid
        # points with a positive bound ratio.
        points = random_siegel_points(1, np.random.default_rng(2), 20, 2.0, 2.0, 0.0)
        assert not points.X.any()
        np.testing.assert_allclose(points.Y, 2.0, rtol=1e-14)
        ratios = phi(e4_package, points) / sturm_rhs(points, e4_package.lambda1)
        assert np.all(ratios > 0)


class TestNonFiniteArguments:
    @pytest.mark.parametrize("constant", [math.nan, math.inf, -1.0])
    def test_growth_bound_constant(self, e4_package, constant):
        with pytest.raises(ValueError, match="constant must be finite"):
            verify_growth_bound(e4_package, constant, config=SweepConfig(samples=5))

    @pytest.mark.parametrize("constant", [math.nan, math.inf, -1.0])
    def test_moderate_constant(self, e4_package, constant):
        w0 = basis_vector(e4_package.rep, 0)
        with pytest.raises(ValueError, match="constant must be finite"):
            verify_moderate_growth(e4_package, w0, constant, config=SweepConfig(samples=5))

    def test_moderate_constant_that_overflows(self, e4_package):
        # The check reads the constant the sweep uses, ||w0|| C = inf here.
        w0 = vector(e4_package.rep, [1e300])
        with pytest.raises(ValueError, match="constant must be finite"):
            verify_moderate_growth(e4_package, w0, 1e300, config=SweepConfig(samples=5))

    @pytest.mark.parametrize("coord", [math.nan, math.inf])
    def test_moderate_w0(self, e4_package, coord):
        w0 = vector(e4_package.rep, [coord])
        with pytest.raises(ValueError, match="w0 coordinates must be finite"):
            verify_moderate_growth(e4_package, w0, 1.0, config=SweepConfig(samples=5))
