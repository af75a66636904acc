import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osls import estimators
from osls.baselines import ConfusionMatrix
from osls.core import AmbiguousStationary, DegenerateScorer, ValidationError
from osls.estimators import (
    BoundReport,
    ScoreMeans,
    bound_coverage_rho_s,
    bound_coverage_rho_t,
    correct_rho,
    estimate_rho_s,
    estimate_source_prior_multiclass,
    rescale_mu0,
    rho_s_bound,
    rho_t_bound,
    score_mean,
    threshold_rescale,
)
from osls.metrics import ece


class TestScoreMean:
    def test_basic(self):
        assert score_mean([0.2, 0.4, 0.6]) == pytest.approx(0.4)

    def test_constant(self):
        assert score_mean([1.0] * 17) == 1.0

    def test_extremes(self):
        assert score_mean([0.0, 1.0]) == 0.5

    def test_errors(self):
        with pytest.raises(ValidationError):
            score_mean([])
        with pytest.raises(ValidationError):
            score_mean([0.5, 1.2])


class TestEstimateRhoS:
    def test_basic(self):
        assert estimate_rho_s(ScoreMeans(0.9, 0.3, 10, 10)) == pytest.approx(0.75)

    def test_symmetric(self):
        assert estimate_rho_s(ScoreMeans(0.8, 0.2, 10, 10)) == pytest.approx(0.5)

    def test_degenerate(self):
        with pytest.raises(DegenerateScorer):
            estimate_rho_s(ScoreMeans(1.0, 0.0, 10, 10))

    def test_clamped(self):
        assert estimate_rho_s(ScoreMeans(0.5, 0.0, 10, 10)) == 1e-6

    def test_clamped_at_the_top(self):
        # mu0 / (1 - mu1 + mu0) is exactly 1 here; the estimate stays below it.
        assert estimate_rho_s(ScoreMeans(1.0, 1.0, 10, 10)) == 1.0 - 1e-6

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.1, 0.9), st.floats(0.05, 0.45), st.floats(0.55, 0.95))
    def test_population_identity(self, q1, v1, v2):
        # Closed-form calibrated scorer: h takes value v with probability q_v and
        # P(ID | h = v) = v. Its exact population means must recover the exact
        # ID ratio rho = E[h].
        q2 = 1.0 - q1
        rho = q1 * v1 + q2 * v2
        mu1 = (q1 * v1 * v1 + q2 * v2 * v2) / rho
        mu0 = (q1 * v1 * (1 - v1) + q2 * v2 * (1 - v2)) / (1.0 - rho)
        est = estimate_rho_s(ScoreMeans(mu1, mu0, 100, 100))
        assert est == pytest.approx(rho, abs=1e-12)


class TestRhoSBound:
    def test_formula(self):
        rep = rho_s_bound(0.9, 0.1, 5000, 5000, math.exp(-2.0))
        assert rep.bound == pytest.approx((1 / 0.2) * math.sqrt(2.0 / 10_000), rel=1e-12)
        assert rep.n_min == 5000

    def test_delta_near_one(self):
        rep = rho_s_bound(0.9, 0.1, 100, 100, 1.0 - 1e-12)
        assert rep.bound == pytest.approx(0.0, abs=1e-5)

    def test_second_formula(self):
        rep = rho_s_bound(0.5, 0.5, 2000, 2000, math.exp(-1.0))
        assert rep.bound == pytest.approx(math.sqrt(1.0 / 4000), rel=1e-12)

    def test_invalid_delta(self):
        with pytest.raises(ValidationError):
            rho_s_bound(0.9, 0.1, 100, 100, 1.5)

    def test_small_positive_gap(self):
        # 1 - mu1 + mu0 is 5e-4: small, but the bound is defined, if wide.
        rep = rho_s_bound(0.9995, 0.0, 5000, 5000, math.exp(-2.0))
        assert rep.bound == pytest.approx((1 / 5e-4) * math.sqrt(2.0 / 10_000), rel=1e-9)

    def test_perfect_scorer_is_named(self):
        # 1 - mu1 + mu0 is exactly 0: a named ValidationError, not a division by zero.
        with pytest.raises(ValidationError, match="1 - mu1 \\+ mu0 must be positive"):
            rho_s_bound(1.0, 0.0, 100, 100, 0.05)


def _grid_min_simplex(a, resolution=0.001):
    """Brute-force minimum of ||A rho||^2 over a 0.001-grid on the simplex."""
    k = a.shape[0]
    ticks = np.arange(0.0, 1.0 + resolution / 2, resolution)
    if k == 2:
        grid = np.column_stack([ticks, 1.0 - ticks])
    elif k == 3:
        p1, p2 = np.meshgrid(ticks, ticks, indexing="ij")
        mask = p1 + p2 <= 1.0 + 1e-12
        grid = np.column_stack([p1[mask], p2[mask], 1.0 - p1[mask] - p2[mask]])
    else:
        raise NotImplementedError
    vals = np.einsum("ij,nj->ni", a, grid)
    objs = np.sum(vals * vals, axis=1)
    best = int(np.argmin(objs))
    return grid[best], float(objs[best])


class TestMulticlassPrior:
    def test_two_class_stationary(self):
        mu = np.array([[0.9, 0.2], [0.1, 0.8]])
        rho = estimate_source_prior_multiclass(mu)
        # independent oracle: brute-force grid over the 1-simplex
        grid_best, _ = _grid_min_simplex(mu - np.eye(2))
        np.testing.assert_allclose(rho.entries, grid_best, atol=2e-3)
        np.testing.assert_allclose(rho.entries, [2 / 3, 1 / 3], atol=1e-6)

    def test_identity_ambiguous(self):
        with pytest.raises(AmbiguousStationary):
            estimate_source_prior_multiclass(np.eye(2))
        with pytest.raises(AmbiguousStationary):
            estimate_source_prior_multiclass(np.eye(4))

    def test_near_identity_with_a_unique_stationary_point(self):
        # mu_hat - I is small (its largest eigenvalue is 6.5e-4), but the
        # stationary distribution is unique: 0.015 r2 = 0.01 r1.
        rho = estimate_source_prior_multiclass(np.array([[0.99, 0.015], [0.01, 0.985]]))
        np.testing.assert_allclose(rho.entries, [0.6, 0.4], atol=1e-8)

    def test_ill_conditioned_near_identity_reaches_the_stationary_point(self):
        # The nonzero eigenvalues of (mu - I)'(mu - I) are 9.1e-5 and 0.14: a
        # first-order method stops short here, and the exact QP does not.
        mu = np.array([[0.99, 0.001, 0.2], [0.005, 0.998, 0.1], [0.005, 0.001, 0.7]])
        rho = estimate_source_prior_multiclass(mu).entries
        assert np.abs(mu @ rho - rho).max() <= 1e-12

    def test_reducible_mu_hat_is_ambiguous(self):
        # Two closed blocks: every mix of the blocks' stationary vectors is stationary.
        mu = np.zeros((4, 4))
        mu[:2, :2] = [[0.9, 0.2], [0.1, 0.8]]
        mu[2:, 2:] = [[0.7, 0.4], [0.3, 0.6]]
        with pytest.raises(AmbiguousStationary):
            estimate_source_prior_multiclass(mu)

    def test_meets_the_kkt_conditions(self):
        # With g = 2 h r the gradient of r' h r, a minimizer over the simplex
        # has g_j >= r . g for every j, with equality on its support. Ten draws
        # for each K and Dirichlet concentration, from one generator.
        rng = np.random.default_rng(1)
        for k in (2, 3, 5, 10, 30, 100):
            for concentration in (0.05, 0.5, 3.0):
                for _ in range(10):
                    mu = rng.dirichlet(np.full(k, concentration), size=k).T
                    rho = estimate_source_prior_multiclass(mu).entries
                    a = mu - np.eye(k)
                    g = 2.0 * a.T @ (a @ rho)
                    slack = g - rho @ g
                    assert slack.min() >= -1e-12, (k, concentration)
                    assert np.abs(slack[rho > 0.0]).max() <= 1e-12, (k, concentration)
                    assert np.abs(mu @ rho - rho).max() <= 1e-12, (k, concentration)

    @pytest.mark.parametrize("k", [2, 4])
    def test_near_identity_ambiguous(self, k):
        # Columns summing to 1 - 1e-7: h = 1e-14 I, whose eigenvalues on the
        # plane sum(p) = 0 are at most 1e-14 k, within the flatness tolerance.
        with pytest.raises(AmbiguousStationary):
            estimate_source_prior_multiclass((1.0 - 1e-7) * np.eye(k))

    def test_symmetric(self):
        mu = np.full((2, 2), 0.5)
        rho = estimate_source_prior_multiclass(mu)
        np.testing.assert_allclose(rho.entries, [0.5, 0.5], atol=1e-9)

    def test_rejects_nonstochastic(self):
        with pytest.raises(ValidationError):
            estimate_source_prior_multiclass(np.array([[0.9, 0.3], [0.2, 0.7]]))

    @pytest.mark.parametrize("k,seed", [(2, 0), (2, 5), (3, 1), (3, 7)])
    def test_matches_grid_objective(self, k, seed):
        rng = np.random.default_rng(seed)
        mu = rng.dirichlet(np.ones(k) * 3.0, size=k).T  # columns on the simplex
        rho = estimate_source_prior_multiclass(mu)
        a = mu - np.eye(k)
        obj = float(np.sum((a @ rho.entries) ** 2))
        _, grid_obj = _grid_min_simplex(a)
        assert obj <= grid_obj + 1e-10
        assert abs(rho.entries.sum() - 1.0) < 1e-12


class TestCorrectRho:
    def test_centered(self):
        assert correct_rho(0.5, 0.9, 0.1) == pytest.approx(0.5)

    def test_basic(self):
        assert correct_rho(0.7, 0.8, 0.2) == pytest.approx(0.7 / 0.6 - 0.2 / 0.6)

    def test_clamped(self):
        assert correct_rho(0.05, 0.9, 0.1) == 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateScorer):
            correct_rho(0.5, 0.5, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 0.45), st.floats(0.55, 1.0))
    def test_exact_affine_inverse(self, rho, mu0, mu1):
        distorted = mu0 + (mu1 - mu0) * rho
        assert correct_rho(distorted, mu1, mu0) == pytest.approx(rho, abs=1e-12)


class TestRhoTBound:
    def test_formula(self):
        rep = rho_t_bound(0.9, 0.1, 2000, math.exp(-1.0))
        assert rep.bound == pytest.approx(1.25 * math.sqrt(2.0 / 2000), rel=1e-12)

    def test_delta_near_one(self):
        assert rho_t_bound(0.9, 0.1, 100, 1.0 - 1e-12).bound == pytest.approx(0.0, abs=1e-6)

    def test_second_formula(self):
        rep = rho_t_bound(0.6, 0.4, 8000, math.exp(-2.0))
        assert rep.bound == pytest.approx(5.0 * math.sqrt(4.0 / 8000), rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            rho_t_bound(0.5, 0.5, 100, 0.05)
        with pytest.raises(ValidationError):
            BoundReport(delta=0.05, bound=float("inf"), n_min=1)


class TestRescaleMu0:
    def test_paper_default_factor(self):
        assert rescale_mu0(0.4, 2.0) == pytest.approx(0.2)

    def test_identity(self):
        assert rescale_mu0(0.3, 1.0) == pytest.approx(0.3)

    def test_zero(self):
        assert rescale_mu0(0.0, 5.0) == 0.0

    def test_rejects_small_T(self):
        with pytest.raises(ValidationError):
            rescale_mu0(0.4, 0.5)

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_rejects_non_finite_T(self, T):
        with pytest.raises(ValidationError, match=f"T must be a finite number >= 1; got {T}"):
            rescale_mu0(0.4, T)


class TestThresholdRescale:
    def test_basic(self):
        out = threshold_rescale([0.6, 0.4], [0.8, 0.8, 0.8], [0.2, 0.2, 0.2])
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_all_below(self):
        out = threshold_rescale([0.1, 0.2], [0.9], [0.5])
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_tie_maps_to_zero(self):
        out = threshold_rescale([0.5], [0.8], [0.2])
        np.testing.assert_array_equal(out, [0.0])

    def test_asymmetric_medians(self):
        # Medians 0.9 and 0.3 put the threshold at 0.6; their sum is not 1, so a
        # threshold of 0.5 / (m1 + m0) or a plain 0.5 reads 0.45 and 0.55 as ID.
        out = threshold_rescale([0.45, 0.55, 0.59, 0.61], [0.9, 0.9, 0.95], [0.3, 0.2, 0.3])
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 1.0])

    def test_empty_reference(self):
        with pytest.raises(ValidationError):
            threshold_rescale([0.5], [], [0.2])


@pytest.mark.parametrize("call,message", [
    (lambda: score_mean([0.5, math.nan]), "scores must lie in"),
    (lambda: ConfusionMatrix([[math.nan, 0.0], [0.0, 1.0]]), "^entries must be .* at row 0$"),
    (lambda: ece([math.nan, 0.5], [True, False]), "confidences must lie in"),
    (lambda: estimate_source_prior_multiclass([[math.nan, 0.5], [0.5, 0.5]]),
     "^mu_hat must be .*; got nan at row 0$"),
    (lambda: threshold_rescale([0.6, 0.4], [math.nan, 0.8], [0.2]), "^id_ref must be finite"),
    (lambda: threshold_rescale([math.nan, 0.4], [0.8], [0.2]), "scores must be finite"),
    (lambda: threshold_rescale([0.6], [0.8], [-math.inf]), "^ood_ref must be finite"),
], ids=["score_mean", "confusion", "ece", "multiclass_prior", "threshold_reference",
        "threshold_score", "threshold_infinite"])
def test_nan_fails_the_input_check(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


class TestCoverage:
    def test_rho_s_coverage(self):
        report = bound_coverage_rho_s(mu1=0.9, mu0=0.1, n=2000, delta=0.05,
                                      trials=1000, seed=7)
        assert report.violation_rate <= report.threshold

    def test_rho_t_coverage(self):
        report = bound_coverage_rho_t(mu1=0.9, mu0=0.1, a=0.2, b=0.6, rho_t=0.6,
                                      n=2000, delta=0.05, trials=1000, seed=7)
        assert report.violation_rate <= report.threshold

    def test_violation_counts(self):
        assert bound_coverage_rho_s().violations == 0
        assert bound_coverage_rho_t().violations == 0
        assert bound_coverage_rho_s(delta=0.4).violations == 4

    def test_drivers_call_the_pipeline_formulas(self, monkeypatch):
        import osls.estimators as est

        calls = []

        def spy(real):
            def call(*args):
                calls.append(real.__name__)
                return real(*args)
            return call

        for name in ("estimate_rho_s", "correct_rho"):
            monkeypatch.setattr(est, name, spy(getattr(est, name)))
        bound_coverage_rho_s(trials=10, n=50)
        bound_coverage_rho_t(trials=20, n=50)
        assert calls == ["estimate_rho_s"] * 10 + ["correct_rho"] * 20

    def test_an_error_equal_to_the_bound_is_no_violation(self):
        # The bound holds when |estimate - truth| <= bound; 0.75 and 0.25 miss 0.5
        # by exactly 0.25, and only 0.8 misses it by more.
        report = estimators._coverage(1, float, [(0.75,), (0.25,), (0.8,)], 0.5,
                                      BoundReport(delta=0.05, bound=0.25, n_min=1))
        assert report.violations == 1

    def test_a_constant_scorer_meets_a_tight_source_bound(self):
        # Every score is 1 (mu1 = mu0 = 1), so rho_s = 1 / (1 - 1 + 1) = 1 and each
        # trial's estimate is 1 - RHO_EPS, inside a bound of 7e-4.
        report = bound_coverage_rho_s(mu1=1.0, mu0=1.0, n=10_000, delta=0.99, trials=3)
        assert report.bound < 1e-3 and report.violations == 0

    def test_unidentifiable_trial_is_a_violation(self):
        # With one draw per reference, mu1' and mu0' coincide in about half the
        # trials; the bound is wider than [0, 1], so only those can violate it.
        report = bound_coverage_rho_t(mu1=0.6, mu0=0.4, n=1, trials=200, seed=0)
        assert report.bound > 1.0 and 50 < report.violations < 150
