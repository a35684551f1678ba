import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

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
from nhsiegel.reps import RepVector, inner, norm, vector
from nhsiegel.samples import SAMPLE_BUILDERS, build_sample
from nhsiegel.sampling import (
    random_compact,
    random_group_samples,
    random_siegel_point,
    random_siegel_points,
    random_unitary,
)
from nhsiegel.symplectic import (
    PointBatch,
    SiegelPoint,
    SymplecticMatrix,
    act,
    automorphy_factor,
    compact_from_unitary,
    from_point,
    reduce_batch,
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


@pytest.mark.parametrize(
    "x, y",
    [([[0.3]], [[1.7]]), ([[0.1, -0.2], [-0.2, 0.4]], [[2.0, 0.3], [0.3, 0.6]])],
    ids=["degree-1", "degree-2"],
)
@pytest.mark.parametrize("rhs", [sturm_rhs, corollary_rhs], ids=["sturm", "corollary"])
def test_rhs_of_a_point_is_that_of_its_y(rhs, x, y):
    # One point gives one float, the value at its imaginary part.
    z = SiegelPoint(np.array(x), np.array(y))
    for lam in (0, 2, 4):
        value = rhs(z, lam)
        assert type(value) is float and value == rhs(z.Y, lam)


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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_values_are_phi_at_the_reduced_point(self, e4_package):
        # The sweep certifies phi over the fundamental domain, so every
        # recorded value is phi at the reduced point.  Today it is phi of the
        # truncated series at the raw point: 67 of these 200 values differ
        # from it by more than 1e-6, by up to 187 times.
        report = verify_growth_bound(e4_package, 1.0, config=SweepConfig(samples=200, seed=1))
        where = report.records.where
        reduced = reduce_batch(PointBatch(where.real, where.imag))[1]
        np.testing.assert_allclose(report.records.value, phi(e4_package, reduced), rtol=1e-9)

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
        report = verify_moderate_growth(zero_package, 1.0, config=SweepConfig(samples=50, seed=41))
        assert report.violations == 0

    def test_e4_sweep(self, e4_package):
        c = estimate_constant(e4_package, SweepConfig(samples=500, seed=42))
        report = verify_moderate_growth(e4_package, c, config=SweepConfig(samples=500, seed=43))
        assert report.passed
        assert report.kind == "moderate-growth"
        assert report.exponent_r == 2.0

    def test_ray_sweep(self, e4_package):
        c = estimate_constant(e4_package, SweepConfig(samples=500, seed=44))
        rays = [
            SymplecticMatrix(np.diag([float(t), 1.0 / t])) for t in (2, 4, 8, 16, 32, 64)
        ]
        report = verify_moderate_growth(e4_package, c, elements=rays)
        assert report.violations == 0
        assert report.samples == 6

    def test_given_elements_config(self, e4_package):
        # Nothing is drawn and the constant is not scaled by safety, so the
        # config keeps only the fields that applied.
        rays = [SymplecticMatrix(np.diag([float(t), 1.0 / t])) for t in (2, 4, 8, 16, 32)]
        report = verify_moderate_growth(e4_package, 1.0, elements=rays)
        assert report.samples == 5
        assert set(report.config) == {"ratio_tol", "delta", "t_max"}

    def test_no_elements(self, e4_package):
        # Guard: an empty element list is not a sweep.
        with pytest.raises(ValueError, match="a sweep needs at least one sample"):
            verify_moderate_growth(e4_package, 1.0, elements=[])

    @pytest.mark.parametrize(
        "name, factor",
        [("constant_package", 2.0), ("e4_package", 1.0), ("sym2_package", 2.0 ** -4)],
    )
    def test_constant_by_proof(self, request, name, factor):
        # C max(1, 2^(1-s))^n n^(-ns), s = lambda1 / 2, with no safety
        # factor: lambda1 = 0 and n = 1 give 2, sym2 (n = 2, lambda1 = 4)
        # gives 2^-4.
        package = request.getfixturevalue(name)
        c = estimate_constant(package, SweepConfig(samples=300, seed=46))
        report = verify_moderate_growth(package, c, config=SweepConfig(samples=300, seed=47))
        assert (report.theorem_constant, report.factor) == (c, factor)
        assert report.constant == pytest.approx(c * factor, rel=1e-15)
        assert report.passed

    def test_exponent_floor(self):
        # Every bundled form is swept at the certified exponent
        # r = n lambda1 / 2, which cannot be set: each right-hand side is
        # the constant times Tr(g^T g)^r at that r.
        assert "r" not in inspect.signature(verify_moderate_growth).parameters
        for name in SAMPLE_BUILDERS:
            package = build_sample(name)
            r = package.n * package.lambda1 / 2.0
            config = SweepConfig(samples=20, seed=3)
            report = verify_moderate_growth(package, 1.0, config=config)
            assert report.exponent_r == r
            traces = np.sum(report.records.where**2, axis=(1, 2))
            np.testing.assert_allclose(report.records.rhs, report.constant * traces**r, rtol=1e-14)
            with pytest.raises(TypeError):
                verify_moderate_growth(package, 1.0, r=r)

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

    @pytest.mark.parametrize("name", ["e4_package", "sym2_package"])
    def test_values_are_the_norm_of_the_lift(self, request, name):
        # Each value is ||lift(F, g)|| = phi(F, g . iI), which bounds the
        # pairing of lift(F, g) with every w by Cauchy-Schwarz.
        package = request.getfixturevalue(name)
        report = verify_moderate_growth(package, 1.0, config=SweepConfig(samples=1000, seed=1))
        gs, values = report.records.where, report.records.value
        expected = phi(package, act(gs, SiegelPoint.base_point(package.n).batch))
        np.testing.assert_allclose(values, expected, rtol=1e-11, atol=0.0)
        lifts = [RepVector(package.rep, row) for row in lift(package, gs)]
        rng = np.random.default_rng(1)
        for _ in range(20):
            dim = package.rep.dim
            w = vector(package.rep, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            pairings = np.array([abs(inner(v, w)) for v in lifts])
            assert np.all(pairings <= norm(w) * values * (1.0 + 1e-12))

    def test_group_samples_are_symplectic(self):
        from nhsiegel.symplectic import is_symplectic

        for block in group_blocks(2, SweepConfig(samples=10, seed=45)):
            for g in block:
                assert is_symplectic(g)


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
        with pytest.raises(ValueError, match="constant must be finite"):
            verify_moderate_growth(e4_package, constant, config=SweepConfig(samples=5))

    def test_moderate_constant_that_overflows(self, constant_package):
        # The check reads the constant the sweep uses, C times the factor 2
        # of lambda1 = 0 at n = 1, which is inf here.
        with pytest.raises(ValueError, match="constant must be finite"):
            verify_moderate_growth(constant_package, 1e308, config=SweepConfig(samples=5))
