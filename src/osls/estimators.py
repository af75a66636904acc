"""Closed-form ratio estimators, their concentration bounds, and score rescaling.

The source ID ratio follows from the population identity
rho = mu0 / (1 - mu1 + mu0) applied to empirical score means; the target ratio
correction inverts the affine distortion a scorer with unequal ID/OOD response
imposes on mean scores. Both come with Hoeffding-style bounds whose coverage
is checked by the Monte-Carlo drivers at the bottom of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import (
    RHO_EPS,
    AmbiguousStationary,
    DegenerateScorer,
    ProbabilityVector,
    ValidationError,
    real_in,
    reals_in,
    reduced_hessian,
    simplex_qp,
    whole_number,
)

# Below this denominator magnitude the scorer is treated as non-identifying:
# the estimators error out instead of returning a clamped guess, since the
# matching bounds blow up as the denominator vanishes.
EPS_DEN = 1e-6

# At or below this smallest eigenvalue on the plane sum(p) = 0, the stationary
# objective is flat along a direction in the simplex's plane.
_FLAT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ScoreMeans:
    """Empirical means of the ID score h over an ID and an OOD reference set."""

    mu1_hat: float
    mu0_hat: float
    n_id: int
    n_ood: int

    def __post_init__(self):
        for name in ("mu1_hat", "mu0_hat"):
            object.__setattr__(self, name, real_in(name, getattr(self, name), 0, 1))
        for name in ("n_id", "n_ood"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), 1))


@dataclass(frozen=True, eq=False)
class BoundReport:
    """A high-probability error bound holding with probability >= 1 - 2*delta."""

    delta: float
    bound: float
    n_min: int

    def __post_init__(self):
        object.__setattr__(self, "delta", real_in("delta", self.delta, 0, 1, strict=True))
        object.__setattr__(self, "bound", real_in("bound", self.bound, 0))


def score_mean(scores: Union[Sequence[float], np.ndarray]) -> float:
    """Arithmetic mean of scores in [0, 1]."""
    arr = reals_in("scores", scores, 0, 1).ravel()
    if arr.size == 0:
        raise ValidationError("scores must not be empty")
    return float(arr.mean())


def estimate_rho_s(means: ScoreMeans) -> float:
    """Source ID ratio mu0 / (1 - mu1 + mu0), clamped away from {0, 1}."""
    den = 1.0 - means.mu1_hat + means.mu0_hat
    if abs(den) < EPS_DEN:
        raise DegenerateScorer(
            f"scorer cannot identify rho_s: |1 - mu1 + mu0| = {abs(den):.3g} < {EPS_DEN}"
        )
    rho = means.mu0_hat / den
    return min(max(rho, RHO_EPS), 1.0 - RHO_EPS)


def rho_s_bound(mu1: float, mu0: float, n_ood: int, n_id: int, delta: float) -> BoundReport:
    """Hoeffding bound on |rho_s - rho_s_hat| holding with probability 1 - 2*delta."""
    delta = real_in("delta", delta, 0, 1, strict=True)
    n_min = min(whole_number("n_ood", n_ood, 1), whole_number("n_id", n_id, 1))
    den = 1.0 - real_in("mu1", mu1, 0, 1) + real_in("mu0", mu0, 0, 1)
    if den <= 0.0:
        raise ValidationError("1 - mu1 + mu0 must be positive")
    bound = (1.0 / den) * math.sqrt(math.log(1.0 / delta) / (2.0 * n_min))
    return BoundReport(delta=delta, bound=bound, n_min=n_min)


def correct_rho(rho_raw: float, mu1p: float, mu0p: float) -> float:
    """Invert the affine mean response of a mis-specified scorer; clamps to [0, 1]."""
    rho_raw, mu1p, mu0p = (real_in(name, v, 0, 1) for name, v in
                           (("rho_raw", rho_raw), ("mu1p", mu1p), ("mu0p", mu0p)))
    den = mu1p - mu0p
    if abs(den) < EPS_DEN:
        raise DegenerateScorer(
            f"scorer responds identically to ID and OOD: |mu1' - mu0'| = {abs(den):.3g}"
        )
    return min(max((rho_raw - mu0p) / den, 0.0), 1.0)


def rho_t_bound(mu1p: float, mu0p: float, n_min: int, delta: float) -> BoundReport:
    """Error bound on the corrected target ID ratio, probability >= 1 - 2*delta."""
    delta = real_in("delta", delta, 0, 1, strict=True)
    n_min = whole_number("n_min", n_min, 1)
    gap = abs(real_in("mu1p", mu1p, 0, 1) - real_in("mu0p", mu0p, 0, 1))
    if gap == 0.0:
        raise ValidationError("|mu1' - mu0'| must be positive")
    bound = (1.0 / gap) * math.sqrt(2.0 * math.log(1.0 / delta) / n_min)
    return BoundReport(delta=delta, bound=bound, n_min=n_min)


def rescale_mu0(mu0_gamma: float, T: float) -> float:
    """Divide the pseudo-OOD score mean by the reweight factor T."""
    T = real_in("T", T, 1)
    return real_in("mu0_gamma", mu0_gamma, 0, 1) / T


def threshold_rescale(
    raw_scores: Union[Sequence[float], np.ndarray],
    id_ref: Union[Sequence[float], np.ndarray],
    ood_ref: Union[Sequence[float], np.ndarray],
) -> np.ndarray:
    """Binarize raw scorer outputs at the midpoint of the two reference medians.

    Scores exactly at the threshold map to 0 (OOD side), which keeps the rule
    deterministic and conservative toward flagging OOD. Every score must be finite.
    """
    raw, id_ref, ood_ref = (reals_in(name, scores, -math.inf).ravel() for name, scores in
                            (("raw_scores", raw_scores), ("id_ref", id_ref), ("ood_ref", ood_ref)))
    for name, scores in (("id_ref", id_ref), ("ood_ref", ood_ref)):
        if scores.size == 0:
            raise ValidationError(f"{name} must not be empty")
    threshold = 0.5 * (float(np.median(id_ref)) + float(np.median(ood_ref)))
    return (raw > threshold).astype(float)


def estimate_source_prior_multiclass(mu_hat: np.ndarray) -> ProbabilityVector:
    """Label distribution solving the stationarity system mu_hat @ rho = rho.

    Minimizes ``||(mu_hat - I) rho||^2`` over the simplex exactly, as the QP
    ``simplex_qp(h, h @ x0, x0, True)`` with ``h = (mu_hat - I)'(mu_hat - I)``
    from the uniform ``x0``: the active-set solver of EM's Newton steps. The
    minimizer is unique exactly when h is positive definite on the plane
    ``sum(p) = 0``, that is, when eigenvalue 1 of mu_hat is simple. Raises
    AmbiguousStationary when the smallest eigenvalue of h on that plane, in
    the coordinates of ``reduced_hessian``, is at or below 1e-12, as for
    mu_hat equal to the identity or made of two closed blocks.
    """
    mu = reals_in("mu_hat", mu_hat, -1e-6)
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1] or mu.shape[0] < 2:
        raise ValidationError("mu_hat must be a square matrix with K >= 2")
    k = mu.shape[0]
    col_sums = mu.sum(axis=0)
    if not np.all(np.abs(col_sums - 1.0) <= 1e-6):
        raise ValidationError("mu_hat must be column-stochastic within 1e-6")

    a = mu - np.eye(k)
    h = a.T @ a
    if np.linalg.eigvalsh(reduced_hessian(h, np.arange(k)))[0] <= _FLAT_TOL:
        raise AmbiguousStationary(
            "eigenvalue 1 of mu_hat is not simple; the stationary distribution is not unique"
        )
    x0 = np.full(k, 1.0 / k)
    return ProbabilityVector(simplex_qp(h, h @ x0, x0, True))


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """Monte-Carlo estimate of how often a bound is violated."""

    theorem: int
    trials: int
    violations: int
    delta: float
    bound: float

    @property
    def violation_rate(self) -> float:
        return self.violations / self.trials

    @property
    def threshold(self) -> float:
        """Nominal failure probability 2*delta plus 3-sigma binomial slack."""
        p = 2.0 * self.delta
        return p + 3.0 * math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def passed(self) -> bool:
        return self.violation_rate <= self.threshold


def _coverage(theorem: int, estimator, trial_args: list, truth: float,
              report: BoundReport) -> CoverageReport:
    """How often ``estimator(*args)``, one call per trial, misses ``truth`` by more than the
    bound; a trial whose scorer cannot identify the ratio misses it."""
    violations = 0
    for args in trial_args:
        try:
            violations += abs(estimator(*args) - truth) > report.bound
        except DegenerateScorer:
            violations += 1
    return CoverageReport(theorem=theorem, trials=len(trial_args), violations=violations,
                          delta=report.delta, bound=report.bound)


def bound_coverage_rho_s(
    mu1: float = 0.9,
    mu0: float = 0.1,
    n: int = 2000,
    delta: float = 0.05,
    trials: int = 1000,
    seed: int = 0,
) -> CoverageReport:
    """Monte-Carlo check of the source-ratio bound with Bernoulli scorers.

    Each trial draws n ID scores with mean mu1 and n OOD scores with mean mu0,
    forms rho_s_hat with ``estimate_rho_s``, and tests it against the bound
    built from the population means. The violation rate should not exceed
    2*delta.
    """
    trials, n = whole_number("trials", trials, 1), whole_number("n", n, 1)
    report = rho_s_bound(mu1, mu0, n, n, delta)  # checks the means and delta before any trial
    rng = np.random.default_rng(seed)
    mu1_hat = (rng.random((trials, n)) < mu1).mean(axis=1)
    mu0_hat = (rng.random((trials, n)) < mu0).mean(axis=1)
    rho_true = mu0 / (1.0 - mu1 + mu0)
    return _coverage(1, lambda m1, m0: estimate_rho_s(ScoreMeans(m1, m0, n, n)),
                     list(zip(mu1_hat.tolist(), mu0_hat.tolist())), rho_true, report)


def bound_coverage_rho_t(
    mu1: float = 0.9,
    mu0: float = 0.1,
    a: float = 0.2,
    b: float = 0.6,
    rho_t: float = 0.6,
    n: int = 2000,
    delta: float = 0.05,
    trials: int = 1000,
    seed: int = 0,
) -> CoverageReport:
    """Monte-Carlo check of the corrected target-ratio bound.

    The base Bernoulli scorer (ID mean mu1, OOD mean mu0) is distorted to
    h' = a + b*h. Each trial estimates mu1', mu0' from n-sample references,
    averages h' over an n-sample target with ID fraction rho_t, applies
    ``correct_rho`` and tests the error against the population bound.
    """
    trials, n = whole_number("trials", trials, 1), whole_number("n", n, 1)
    a, b = real_in("a", a, 0, 1), real_in("b", b, -math.inf)
    for name, value in (("mu1", mu1), ("mu0", mu0), ("rho_t", rho_t), ("a + b", a + b)):
        real_in(name, value, 0, 1)  # the distorted scores lie between a and a + b
    mu1p = a + b * mu1
    mu0p = a + b * mu0
    report = rho_t_bound(mu1p, mu0p, n, delta)  # checks delta and the mean gap first
    rng = np.random.default_rng(seed)

    id_scores = a + b * (rng.random((trials, n)) < mu1)
    ood_scores = a + b * (rng.random((trials, n)) < mu0)
    is_id = rng.random((trials, n)) < rho_t
    h_raw = np.where(is_id, rng.random((trials, n)) < mu1, rng.random((trials, n)) < mu0)
    target_scores = a + b * h_raw

    mu1p_hat = id_scores.mean(axis=1)
    mu0p_hat = ood_scores.mean(axis=1)
    rho_prime = target_scores.mean(axis=1)
    return _coverage(3, correct_rho,
                     list(zip(rho_prime.tolist(), mu1p_hat.tolist(), mu0p_hat.tolist())),
                     rho_t, report)
