"""Growth certification for lifted forms.

Two right-hand sides are certified against samples:

  * eigenvalue product bound:   prod_i (mu_i^{l/2} + mu_i^{-l/2}),
  * trace/determinant bound:    (1 + Tr Y)^{n l} (det Y)^{-l/2},

where l is the largest entry of the highest weight and mu_i are the
eigenvalues of Y = Im(Z), together with the moderate-growth inequality
|Phi(g)| <= C (Tr(g^T g))^r for the function lifted to the group.

The eigenvalue-bound constant C is estimated empirically: the invariant
magnitude phi is swept over reduced (fundamental-domain) points, and its
worst ratio against the eigenvalue bound is inflated by a safety factor.
The other constants follow from C by proof (see the README): C times
max(1, 2^{1-l})^n for the trace/determinant bound, and ||w0|| C times
max(1, 2^{1-l/2})^n n^{-nl/2} for moderate growth at every r >= nl/2.
Each constant is then validated on fresh adversarial sweeps.

Sweeps run blocks of SWEEP_BLOCK points through the batched kernels.
Each block is drawn as one stack (see ``sampling``), with the generator
called per sample in a fixed order, so a seed gives the same points
whatever the block size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .forms import FormPackage, FourierExpansion, phi, slash_values
from .reps import RepVector, _as_int, norm
from .sampling import CHECK_BOX, EIG_HIGH, EIG_LOW, X_SCALE, random_group_samples, random_siegel_points
from .symplectic import (
    FUNDAMENTAL_DOMAIN_DELTA,
    PointBatch,
    SiegelPoint,
    SymplecticMatrix,
    reduce_batch,
)

SAFETY = 1.25
RATIO_TOL = 1e-9

# Points per block of a sweep, which bounds a block's temporaries whatever the
# sample count.  On sym2 at 1000 samples (2 cores, one BLAS thread),
# estimate_constant peaked at 0.6 MB traced with blocks of 256 and 1.8 MB with
# one block of 1000, and took 20.1 ms against 17.2 ms; the 3 ms are about 1 %
# of a CLI command.  The report's per-sample records grow with the count.
SWEEP_BLOCK = 256


@dataclass(frozen=True)
class SweepConfig:
    """Sampling parameters for constant estimation and bound sweeps."""

    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("samples", 1), ("seed", 0)):
            value = _as_int(getattr(self, name))
            if value is None or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)


class SampleRecords(NamedTuple):
    """The per-sample stream of one sweep, in sample order: ``where`` holds
    the points Z (complex) or group elements g, ``value`` phi or
    |<lift, w0>|, then the scaled right-hand side and the ratio."""

    where: np.ndarray
    value: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of a bound-verification sweep.  ``records`` holds the
    per-sample stream behind the summary; it is not part of ``to_dict``."""

    kind: str
    constant: float  # the multiplier of the rhs: theorem_constant * factor (* ||w0||)
    theorem_constant: float
    factor: float
    exponent_r: float
    samples: int
    violations: int
    worst_ratio: float
    worst_point: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    records: SampleRecords | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}


def _points(y) -> PointBatch:
    """The batch of a PointBatch or a SiegelPoint; a matrix Y as one point
    with X = 0."""
    if isinstance(y, (SiegelPoint, PointBatch)):
        return y.batch if isinstance(y, SiegelPoint) else y
    y = np.asarray(y, dtype=float)
    return PointBatch(np.zeros((1,) + y.shape), y[None])


def sturm_rhs(y, lambda1: int):
    """prod_i (mu_i^{lambda1/2} + mu_i^{-lambda1/2}) over the eigenvalues of
    Y at a matrix Y or a SiegelPoint, as a float; at every point of a
    PointBatch, as an array."""
    points = _points(y)
    half = lambda1 / 2.0
    mu = points.eigvals
    out = np.prod(mu**half + mu ** (-half), axis=-1)
    return out if points is y else float(out[0])


def corollary_rhs(y, lambda1: int):
    """(1 + Tr Y)^{n lambda1} (det Y)^{-lambda1/2} at a matrix Y or a
    SiegelPoint, as a float; at every point of a PointBatch, as an array."""
    points = _points(y)
    trace, det_y = np.trace(points.Y, axis1=1, axis2=2), np.prod(points.eigvals, axis=-1)
    out = (1.0 + trace) ** (points.n * lambda1) * det_y ** (-lambda1 / 2.0)
    return out if points is y else float(out[0])


def _seeded_blocks(draw, n: int, config: SweepConfig) -> Iterator:
    """``config.samples`` draws of ``draw`` from one generator seeded with
    ``config.seed``, in blocks of at most SWEEP_BLOCK."""
    rng = np.random.default_rng(config.seed)
    for start in range(0, config.samples, SWEEP_BLOCK):
        size = min(SWEEP_BLOCK, config.samples - start)
        yield draw(n, rng, size)


# The configured adversarial and CHECK_BOX points as PointBatches, and the
# configured group samples from_point(Z) k as (N, 2n, 2n) stacks.
adversarial_blocks = partial(_seeded_blocks, random_siegel_points)
check_blocks = partial(_seeded_blocks, lambda n, rng, k: random_siegel_points(n, rng, k, *CHECK_BOX))
group_blocks = partial(_seeded_blocks, random_group_samples)


def estimate_constant(package: FormPackage, config: SweepConfig) -> float:
    """Empirical constant for the eigenvalue product bound: SAFETY times the
    worst ratio of the theorem sweep over fundamental-domain points, with
    constant 1."""
    reduced = (reduce_batch(points)[1] for points in adversarial_blocks(package.n, config))
    return SAFETY * _phi_sweep(package, 1.0, "theorem", config, reduced).worst_ratio


def verify_growth_bound(
    package: FormPackage,
    constant: float,
    kind: str = "theorem",
    config: SweepConfig | None = None,
) -> GrowthReport:
    """Check phi(F, Z) <= constant * RHS(Im Z) over the configured
    adversarial points.

    ``kind`` selects the right-hand side: "theorem" for the eigenvalue
    product, "corollary" for the trace/determinant form.  Violations are
    recorded, not raised; the report's ``records`` hold every sample.
    """
    config = config or SweepConfig()
    return _phi_sweep(package, constant, kind, config, adversarial_blocks(package.n, config))


def _phi_sweep(package, constant, kind, config, blocks) -> GrowthReport:
    """The sweep of phi against the ``kind`` right-hand side over ``blocks``
    of points."""
    lam1, n = package.lambda1, package.n
    # The right-hand side, the factor on C, and the exponent of each kind.
    sides = {
        "theorem": (sturm_rhs, 1.0, lam1 / 2.0),
        "corollary": (corollary_rhs, max(1.0, 2.0 ** (1 - lam1)) ** n, float(n * lam1)),
    }
    if kind not in sides:
        raise ValueError(f"unknown bound kind {kind!r}")
    rhs_fn, factor, exponent = sides[kind]

    def score(points):
        return points.mat, phi(package, points), rhs_fn(points, lam1)

    return _sweep(kind, constant, factor, exponent, blocks, score, _config_dict(config, package))


def lift(f: FourierExpansion | FormPackage, g: SymplecticMatrix | np.ndarray):
    """The lifted function on the group, rho(J(g, iI))^{-1} F(g . iI): a
    RepVector at a SymplecticMatrix g; at every element of an (N, 2n, 2n)
    stack, as an (N, dim) array."""
    one = isinstance(g, SymplecticMatrix)
    values = slash_values(f, g.mat[None] if one else g, SiegelPoint.base_point(f.n).batch)
    return RepVector(f.rep, values[0]) if one else values


def verify_moderate_growth(
    package: FormPackage,
    w0: RepVector,
    constant: float,
    elements: Iterable[SymplecticMatrix] | None = None,
    config: SweepConfig | None = None,
) -> GrowthReport:
    """Check |<lift(F, g), w0>| <= C (Tr(g^T g))^r over group samples.

    ``constant`` is the certified eigenvalue-bound constant C; the moderate
    growth constant is ||w0|| C max(1, 2^{1-s})^n n^{-ns}, with s = lambda1/2,
    for a finite, non-zero w0.  r is ns: as Tr(g^T g) >= 2n > 1, the sweep
    at ns implies every larger r.  Given ``elements`` are swept as one
    block in place of the configured draws, and the report's config then
    keeps only the fields that applied to them.
    """
    if w0.rep != package.rep:
        raise ValueError(f"w0 is in {w0.rep}, the form in {package.rep}")
    lam1, n = package.lambda1, package.n
    r = n * lam1 / 2.0
    if not np.all(np.isfinite(w0.coords)):
        raise ValueError(f"w0 coordinates must be finite, got {w0.coords.tolist()}")
    if not w0.coords.any():
        raise ValueError("w0 must be non-zero: for w0 = 0 both sides vanish and nothing is checked")
    config = config or SweepConfig()
    # The sweep runs on the unit w0 / s, with s the largest |entry|, whose
    # squared entries neither underflow nor overflow; its ratios are those
    # of w0, whatever the scale of w0.  Dividing the real view by s forms
    # no reciprocal 1 / s, which could overflow.
    s = float(np.abs(w0.coords).max())
    unit = RepVector(w0.rep, (w0.coords.view(float) / s).view(complex))
    factor = max(1.0, 2.0 ** (1 - lam1 / 2.0)) ** n * float(n) ** -r
    settings = _config_dict(config, package)
    if elements is None:
        blocks = group_blocks(n, config)
    else:
        mats = [g.mat for g in elements]
        blocks = [np.stack(mats)] if mats else []
        settings = {k: settings[k] for k in ("ratio_tol", "delta", "t_max")}
    weights = np.conj(unit.coords) * package.rep.basis_sq_norms

    def score(gs):
        value = np.abs(np.sum(lift(package, gs) * weights, axis=-1))
        with np.errstate(over="ignore"):
            return gs, value, np.sum(gs * gs, axis=(1, 2)) ** r

    return _sweep("moderate-growth", constant, factor, r, blocks, score, settings, norm(unit), s)


def _sweep(
    kind, theorem_constant, factor, exponent_r, blocks, score, settings, w0_norm=1.0, scale=1.0
):
    """The report of ``score``, which maps a block to its (where, value,
    rhs / constant) arrays, over ``blocks``, with config dict ``settings``.
    The ratios are those of constant ``w0_norm * theorem_constant * factor``;
    the reported constant, values and right-hand sides are ``scale`` times
    theirs.  A ratio reads 0/0 as 0, and x/0 and a quotient that overflows
    as inf; a right-hand side that overflows is inf."""
    unit_constant = w0_norm * theorem_constant * factor
    constant = scale * unit_constant
    if not (math.isfinite(constant) and constant >= 0):
        raise ValueError(f"bound constant must be finite and non-negative, got {constant}")
    parts = [score(block) for block in blocks]
    if not parts:
        raise ValueError("a sweep needs at least one sample")
    where, value, rhs = map(np.concatenate, zip(*parts))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rhs = unit_constant * rhs
        ratio = np.where(rhs == 0.0, np.where(value == 0.0, 0.0, math.inf), value / rhs)
        records = SampleRecords(where, scale * value, scale * rhs, ratio)
    # The first largest ratio is the witness; NaN ratios never are.
    ratio = np.where(np.isnan(ratio), 0.0, ratio)
    worst = int(np.argmax(ratio))
    worst_ratio = float(ratio[worst])
    worst_point: dict = {}
    if worst_ratio > 0.0:
        at = where[worst]
        if kind == "moderate-growth":
            worst_point = {"g": at.tolist()}
        else:
            worst_point = {"X": at.real.tolist(), "Y": at.imag.tolist()}
    return GrowthReport(
        kind=kind,
        constant=constant,
        theorem_constant=theorem_constant,
        factor=factor,
        exponent_r=exponent_r,
        samples=len(ratio),
        violations=int(np.sum(records.ratio > 1.0 + RATIO_TOL)),
        worst_ratio=worst_ratio,
        worst_point=worst_point,
        config=settings,
        records=records,
    )


def _config_dict(config: SweepConfig, package: FormPackage) -> dict:
    return {
        **asdict(config),
        "ratio_tol": RATIO_TOL,
        "safety": SAFETY,
        "eig_low": EIG_LOW, "eig_high": EIG_HIGH, "x_scale": X_SCALE,
        "delta": FUNDAMENTAL_DOMAIN_DELTA.get(package.n),
        "t_max": package.expansion.t_max,
    }
