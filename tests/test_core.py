import json
import math
import re
import tempfile
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osls import core
from osls import io as osls_io
from osls.core import (
    ProbabilityVector,
    RecordSet,
    RowError,
    SourceLabelModel,
    TargetLabelModel,
    ValidationError,
    extend_distribution,
    json_fields,
    labels_in,
    real_in,
    reals_in,
    validate_simplex,
    whole_number,
)
from osls.baselines import (
    ConfusionMatrix,
    argmax_labels,
    bbse,
    mapls,
    mlls,
    predicted_class_frequencies,
)
from osls.em import EmConfig, nll_grid_argmin, run_em
from osls.estimators import (
    BoundReport,
    ScoreMeans,
    bound_coverage_rho_s,
    bound_coverage_rho_t,
    correct_rho,
    estimate_source_prior_multiclass,
    rescale_mu0,
    rho_s_bound,
    rho_t_bound,
    score_mean,
    threshold_rescale,
)
from osls.metrics import ece, rho_abs_error, top1_accuracy, w_mse
from osls.pipeline import correct_records, estimate, run_sweep, source_class_frequencies
from osls.simulate import (
    GaussianComponents,
    LabeledDataset,
    Scenario,
    ShiftSpec,
    dirichlet_shift,
    distort_scorer,
    gen_pseudo_ood,
    ordered_lt_shift,
    ring_config,
    subsample_to_ratio,
)


def simplexes(min_k=1, max_k=8):
    return (
        st.lists(st.floats(1e-6, 1.0), min_size=min_k, max_size=max_k)
        .map(lambda xs: np.array(xs) / np.sum(xs))
    )


class TestValidateSimplex:
    def test_valid(self):
        assert validate_simplex([0.5, 0.5], 1e-9)

    def test_bad_sum(self):
        assert not validate_simplex([0.6, 0.5], 1e-9)

    def test_within_tolerance(self):
        assert validate_simplex([1.0 + 5e-10, -5e-10], 1e-9)

    def test_empty_and_nan(self):
        assert not validate_simplex([], 1e-9)
        assert not validate_simplex([np.nan, 1.0], 1e-9)


class TestExtendDistribution:
    def test_basic(self):
        out = extend_distribution([0.5, 0.5], 0.8)
        np.testing.assert_allclose(out.entries, [0.4, 0.4, 0.2], atol=1e-15)

    def test_rho_one_boundary(self):
        out = extend_distribution([1.0], 1.0)
        np.testing.assert_allclose(out.entries, [1.0, 0.0], atol=0)

    def test_three_class(self):
        out = extend_distribution([0.2, 0.3, 0.5], 0.5)
        np.testing.assert_allclose(out.entries, [0.1, 0.15, 0.25, 0.5], atol=1e-15)

    def test_rejects_non_simplex(self):
        with pytest.raises(ValidationError):
            extend_distribution([0.6, 0.5], 0.5)
        with pytest.raises(ValidationError):
            extend_distribution([0.5, 0.5], 1.5)

    @settings(max_examples=200, deadline=None)
    @given(simplexes(), st.floats(0.0, 1.0))
    def test_sums_to_one(self, base, rho):
        out = extend_distribution(base, rho)
        assert abs(out.entries.sum() - 1.0) <= 1e-12 * (base.size + 1)

    @settings(max_examples=200, deadline=None)
    @given(simplexes(), st.floats(1e-5, 1.0))
    def test_round_trip(self, base, rho):
        ext = extend_distribution(base, rho).entries
        assert abs((1.0 - ext[-1]) - rho) <= 1e-12
        np.testing.assert_allclose(ext[:-1] / rho, base, atol=1e-12)


def _convex_qps(seed, count):
    """(h, g, x0) of ``count`` strictly convex QPs over the simplex.

    Each start ``x0`` sums to 1.5, not 1, and holds a zero in about a third of
    its coordinates; gradients of scale 1 to 10 put most minimizers on a face.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(2, 9))
        a = rng.normal(size=(k + 2, k))
        x0 = rng.dirichlet(np.ones(k)) * (rng.random(k) > 1.0 / 3.0)
        if not x0.any():
            x0[0] = 1.0
        yield a.T @ a, rng.normal(size=k) * 10.0 ** rng.uniform(0, 1), 1.5 * x0 / x0.sum()


class TestSimplexQp:
    def test_meets_the_kkt_conditions(self):
        # At the minimizer y, with grad = g + h (y - x0): grad_j >= y . grad for
        # every j, with equality on the support of y.
        for h, g, x0 in _convex_qps(3, 200):
            y = core.simplex_qp(h, g, x0, True)
            assert y.min() >= 0.0 and abs(y.sum() - 1.0) <= 1e-12
            grad = g + h @ (y - x0)
            slack = grad - y @ grad
            scale = np.abs(grad).max()
            assert slack.min() >= -1e-10 * scale
            assert np.abs(slack[y > 0.0]).max() <= 1e-10 * scale

    @pytest.mark.parametrize("scale", [2.0 ** -30, 2.0 ** 30])
    def test_same_minimizer_at_any_scale(self, scale):
        # The release test is relative to the free gradient, so scaling h and g
        # together moves no coordinate in or out of the support.
        for h, g, x0 in _convex_qps(4, 50):
            np.testing.assert_allclose(core.simplex_qp(scale * h, scale * g, x0, True),
                                       core.simplex_qp(h, g, x0, True), rtol=1e-12, atol=1e-15)

    def test_nonconvex_factors_only_the_support(self):
        # x0's zero coordinate stays held, as its multiplier 10 keeps the KKT
        # conditions, so the reduced Hessian on all three coordinates, which
        # is not positive definite, is never factored.
        h, g = np.diag([1.0, 1.0, -1.0]), np.array([0.0, 0.0, 10.0])
        y = core.simplex_qp(h, g, np.array([0.5, 0.5, 0.0]), False)
        np.testing.assert_array_equal(y, [0.5, 0.5, 0.0])
        assert core.simplex_qp(h, g, np.array([0.4, 0.4, 0.2]), False) is None


class TestExtendClassifierOutput:
    def test_basic(self):
        rs = RecordSet(np.array([[0.7, 0.3]]), np.array([0.9]))
        np.testing.assert_allclose(rs.extended_f(), [[0.63, 0.27, 0.10]], atol=1e-15)

    def test_certain_id(self):
        rs = RecordSet(np.array([[1.0]]), np.array([1.0]))
        np.testing.assert_allclose(rs.extended_f(), [[1.0, 0.0]])

    def test_certain_ood(self):
        rs = RecordSet(np.array([[0.5, 0.5]]), np.array([0.0]))
        np.testing.assert_allclose(rs.extended_f(), [[0.0, 0.0, 1.0]])

    @settings(max_examples=200, deadline=None)
    @given(simplexes(), st.floats(0.0, 1.0))
    def test_sums_to_one(self, f, h):
        rs = RecordSet(f[None, :], np.array([h]))
        assert abs(rs.extended_f().sum() - 1.0) <= 1e-12


class TestTypes:
    def test_probability_vector_renormalizes(self):
        pv = ProbabilityVector([0.5 + 2e-10, 0.5 - 3e-10])
        assert pv.entries.sum() == 1.0
        assert not pv.entries.flags.writeable

    def test_source_model_rejects_tiny_class(self):
        with pytest.raises(ValidationError):
            SourceLabelModel(ProbabilityVector([1.0 - 1e-7, 1e-7]), 0.5)

    def test_source_model_rejects_boundary_rho(self):
        for rho in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValidationError):
                SourceLabelModel(ProbabilityVector([0.5, 0.5]), rho)

    def test_source_model_clamps_rho(self):
        m = SourceLabelModel(ProbabilityVector([0.5, 0.5]), 1.0 - 1e-12)
        assert m.rho_s == 1.0 - 1e-6

    def test_target_model_allows_boundaries(self):
        assert TargetLabelModel(ProbabilityVector([1.0]), 0.0).rho_t == 0.0
        assert TargetLabelModel(ProbabilityVector([1.0]), 1.0).rho_t == 1.0

    def test_record_label_range(self):
        f, h = np.array([[0.5, 0.5]]), np.array([0.5])
        assert RecordSet(f, h, np.array([3])).y.tolist() == [3]
        with pytest.raises(ValidationError):
            RecordSet(f, h, np.array([4]))
        with pytest.raises(ValidationError):
            RecordSet(f, np.array([1.5]))


class TestRecordSet:

    def test_extended_f(self):
        rs = RecordSet(np.array([[0.7, 0.3]]), np.array([0.9]))
        np.testing.assert_allclose(rs.extended_f(), [[0.63, 0.27, 0.10]], atol=1e-15)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValidationError):
            RecordSet(np.array([[0.6, 0.5]]), np.array([0.5]))
        with pytest.raises(ValidationError):
            RecordSet(np.array([[0.5, 0.5]]), np.array([1.5]))
        with pytest.raises(ValidationError):
            RecordSet(np.empty((0, 2)), np.empty(0))

    def test_label_validation(self):
        with pytest.raises(ValidationError):
            RecordSet(np.array([[1.0]]), np.array([1.0]), np.array([3]))

    # (rows, block rows, bad row): one block; the last row of a block and the
    # first of the next; and the lone last row, which joins the block before it.
    BLOCK_CASES = [(3, None, 1), (9, 4, 3), (9, 4, 4), (9, 4, 8)]

    def test_rejects_non_finite_values_naming_the_row(self, monkeypatch):
        for n, block, row in self.BLOCK_CASES:
            if block is not None:
                monkeypatch.setattr(core, "BLOCK_CELLS", 2 * block)
            for bad_f, bad_h in ((np.nan, 0.5), (0.5, np.nan), (0.5, np.inf), (-np.inf, 0.5)):
                ff, hh = np.full((n, 2), 0.5), np.full(n, 0.5)
                ff[row, 0], hh[row] = bad_f, bad_h
                message = rf"^[fh] must .*; got (nan|-?inf) at row {row}$"
                with pytest.raises(ValidationError, match=message):
                    RecordSet(ff, hh)
                with pytest.raises(ValidationError, match=message):
                    RecordSet._adopt(ff, hh)

    def test_rejects_rows_off_the_simplex_naming_the_first(self, monkeypatch):
        for n, block, row in self.BLOCK_CASES:
            if block is not None:
                monkeypatch.setattr(core, "BLOCK_CELLS", 2 * block)
            f, h = np.full((n, 2), 0.5), np.full(n, 0.5)
            f[row] = [0.6, 0.5]
            f[n - 1, 1] = -0.1  # a later bad row is not the one named
            f = np.asfortranarray(f)
            message = f"^f must be probability vectors .* at row {row}$"
            with pytest.raises(ValidationError, match=message):
                RecordSet(f, h)
            # A non-finite value is named first, even in a later block.
            f[n - 1, 1] = np.nan
            message = f"^f must be finite numbers; got nan at row {n - 1}$"
            with pytest.raises(ValidationError, match=message):
                RecordSet(f, h)

    @pytest.mark.parametrize("bad", [1.9, -0.2, 1.0 + 2e-9])
    def test_rejects_h_outside_unit_interval_naming_the_row(self, bad):
        f = np.full((3, 2), 0.5)
        message = r"^h must lie in \[-1e-09, 1.000000001\]; got .* at row 2$"
        with pytest.raises(ValidationError, match=message):
            RecordSet(f, np.array([0.5, 1.0 + 5e-10, bad]))

    def test_rejects_non_integral_labels(self):
        f, h = np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5])
        message = r"^y must be whole numbers in 1\.\.3; got .* at row 1$"
        for bad in (1.7, np.nan, np.inf):
            with pytest.raises(ValidationError, match=message):
                RecordSet(f, h, np.array([1.0, bad]))
        rs = RecordSet(f, h, np.array([3.0, 1.0]))
        assert rs.y.dtype == np.int64 and rs.y.tolist() == [3, 1]

    def test_with_h_and_take_check_what_they_change(self):
        rs = RecordSet(np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([0.5, 0.5]),
                       np.array([1, 3]))
        for bad in ([0.5, 1.5], [0.5, np.nan], [0.5]):
            with pytest.raises(ValidationError):
                rs.with_h(np.array(bad))
        assert rs.with_h(np.array([0.0, 1.0 + 1e-12])).h.tolist() == [0.0, 1.0]
        with pytest.raises(ValidationError, match="empty record set"):
            rs.take(np.array([], dtype=int))
        taken = rs.take(np.array([1]))
        assert taken.f.tolist() == [[0.25, 0.75]] and taken.y.tolist() == [3]

    def test_with_h_makes_no_copy_of_f(self):
        n, k = 20_000, 50
        rng = np.random.default_rng(0)
        rs = RecordSet(rng.dirichlet(np.ones(k), size=n), rng.random(n))
        h = rng.random(n)
        tracemalloc.start()
        try:
            out = rs.with_h(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.f is rs.f and np.array_equal(out.h, h) and not out.h.flags.writeable
        assert peak <= 3 * h.nbytes

    def test_immutable(self):
        rs = RecordSet(np.array([[0.5, 0.5]]), np.array([0.5]))
        with pytest.raises(ValueError):
            rs.f[0, 0] = 0.9


class TestScalarRule:
    def test_real_in(self):
        assert real_in("x", np.float64(0.25), 0, 1) == 0.25
        assert type(real_in("x", 1, 0, 1)) is float
        assert real_in("T", 1, 1) == 1.0
        for value, low, high, strict, message in [
            (0.0, 0, 1, True, "delta must lie in (0, 1); got 0.0"),
            (1.5, 0, 1, False, "delta must lie in [0, 1]; got 1.5"),
            (math.nan, 1, math.inf, False, "delta must be a finite number >= 1; got nan"),
            (math.inf, 0, math.inf, True, "delta must be a finite number > 0; got inf"),
            (None, 0, 1, False, "delta must lie in [0, 1]; got None"),
        ]:
            with pytest.raises(ValidationError) as err:
                real_in("delta", value, low, high, strict)
            assert str(err.value) == message

    def test_whole_number(self):
        assert whole_number("k", np.int64(3), 1) == 3
        assert type(whole_number("k", np.int64(3))) is int
        assert whole_number("seed", -5) == -5
        for value, least, message in [
            (2.5, 1, "k must be a whole number >= 1; got 2.5"),
            (0, 1, "k must be a whole number >= 1; got 0"),
            (3.0, None, "k must be a whole number; got 3.0"),
            (math.nan, None, "k must be a whole number; got nan"),
        ]:
            with pytest.raises(ValidationError) as err:
                whole_number("k", value, least)
            assert str(err.value) == message


_BASE = ring_config(2, n_source=10, n_target=10, n_ood_ref=10)
_LABELED = RecordSet(np.full((2, 2), 0.5), np.array([0.5, 0.5]), np.array([1, 3]))
_SOURCE = SourceLabelModel([0.5, 0.5], 0.5)
_REALS = (math.nan, math.inf, -math.inf)
_COUNTS = (2.5, math.nan, math.inf)

# Every scalar parameter check: (site, the name its message starts with, the call
# with the bad value, the bad values). Reals get NaN and both infinities, counts
# a fraction, NaN and inf.
_SCALAR_SITES = [
    ("ScoreMeans.mu1_hat", "mu1_hat", lambda x: ScoreMeans(x, 0.1, 3, 3), _REALS),
    ("ScoreMeans.mu0_hat", "mu0_hat", lambda x: ScoreMeans(0.9, x, 3, 3), _REALS),
    ("ScoreMeans.n_id", "n_id", lambda x: ScoreMeans(0.9, 0.1, x, 3), _COUNTS),
    ("ScoreMeans.n_ood", "n_ood", lambda x: ScoreMeans(0.9, 0.1, 3, x), _COUNTS),
    ("BoundReport.delta", "delta", lambda x: BoundReport(x, 0.1, 3), _REALS),
    ("BoundReport.bound", "bound", lambda x: BoundReport(0.05, x, 3), _REALS),
    ("rho_s_bound.mu1", "mu1", lambda x: rho_s_bound(x, 0.1, 3, 3, 0.05), _REALS),
    ("rho_s_bound.mu0", "mu0", lambda x: rho_s_bound(0.9, x, 3, 3, 0.05), _REALS),
    ("rho_s_bound.n_ood", "n_ood", lambda x: rho_s_bound(0.9, 0.1, x, 3, 0.05), _COUNTS),
    ("rho_s_bound.n_id", "n_id", lambda x: rho_s_bound(0.9, 0.1, 3, x, 0.05), _COUNTS),
    ("rho_s_bound.delta", "delta", lambda x: rho_s_bound(0.9, 0.1, 3, 3, x), _REALS),
    ("correct_rho.rho_raw", "rho_raw", lambda x: correct_rho(x, 0.9, 0.1), _REALS),
    ("correct_rho.mu1p", "mu1p", lambda x: correct_rho(0.5, x, 0.1), _REALS),
    ("correct_rho.mu0p", "mu0p", lambda x: correct_rho(0.5, 0.9, x), _REALS),
    ("rho_t_bound.mu1p", "mu1p", lambda x: rho_t_bound(x, 0.1, 3, 0.05), _REALS),
    ("rho_t_bound.mu0p", "mu0p", lambda x: rho_t_bound(0.9, x, 3, 0.05), _REALS),
    ("rho_t_bound.n_min", "n_min", lambda x: rho_t_bound(0.9, 0.1, x, 0.05), _COUNTS),
    ("rho_t_bound.delta", "delta", lambda x: rho_t_bound(0.9, 0.1, 3, x), _REALS),
    ("rescale_mu0.mu0_gamma", "mu0_gamma", lambda x: rescale_mu0(x, 2.0), _REALS),
    ("rescale_mu0.T", "T", lambda x: rescale_mu0(0.5, x), _REALS),
    ("bound_coverage_rho_s.mu1", "mu1", lambda x: bound_coverage_rho_s(mu1=x), _REALS),
    ("bound_coverage_rho_s.mu0", "mu0", lambda x: bound_coverage_rho_s(mu0=x), _REALS),
    ("bound_coverage_rho_s.n", "n", lambda x: bound_coverage_rho_s(n=x), _COUNTS),
    ("bound_coverage_rho_s.trials", "trials", lambda x: bound_coverage_rho_s(trials=x), _COUNTS),
    ("bound_coverage_rho_s.delta", "delta", lambda x: bound_coverage_rho_s(delta=x), _REALS),
    ("bound_coverage_rho_t.mu1", "mu1", lambda x: bound_coverage_rho_t(mu1=x), _REALS),
    ("bound_coverage_rho_t.mu0", "mu0", lambda x: bound_coverage_rho_t(mu0=x), _REALS),
    ("bound_coverage_rho_t.a", "a", lambda x: bound_coverage_rho_t(a=x), _REALS),
    ("bound_coverage_rho_t.b", "b", lambda x: bound_coverage_rho_t(b=x), _REALS),
    ("bound_coverage_rho_t.rho_t", "rho_t", lambda x: bound_coverage_rho_t(rho_t=x), _REALS),
    ("bound_coverage_rho_t.n", "n", lambda x: bound_coverage_rho_t(n=x), _COUNTS),
    ("bound_coverage_rho_t.trials", "trials", lambda x: bound_coverage_rho_t(trials=x), _COUNTS),
    ("bound_coverage_rho_t.delta", "delta", lambda x: bound_coverage_rho_t(delta=x), _REALS),
    ("dirichlet_shift.k", "k", lambda x: dirichlet_shift(x, 1.0, 0), _COUNTS),
    ("dirichlet_shift.alpha", "alpha", lambda x: dirichlet_shift(2, x, 0), _REALS),
    ("ordered_lt_shift.k", "k", lambda x: ordered_lt_shift(x, 10.0), _COUNTS),
    ("ordered_lt_shift.imbalance", "imbalance", lambda x: ordered_lt_shift(2, x), _REALS),
    ("ShiftSpec.alpha", "alpha", lambda x: ShiftSpec("dirichlet", alpha=x), _REALS),
    ("ShiftSpec.imbalance", "imbalance", lambda x: ShiftSpec("ordered_lt", imbalance=x),
     _REALS),
    ("ScenarioConfig.k", "k", lambda x: replace(_BASE, k=x), _COUNTS),
    ("ScenarioConfig.n_source", "n_source", lambda x: replace(_BASE, n_source=x), _COUNTS),
    ("ScenarioConfig.n_target", "n_target", lambda x: replace(_BASE, n_target=x), _COUNTS),
    ("ScenarioConfig.n_ood_ref", "n_ood_ref", lambda x: replace(_BASE, n_ood_ref=x), _COUNTS),
    ("ScenarioConfig.seed", "seed", lambda x: replace(_BASE, seed=x), _COUNTS),
    ("ScenarioConfig.r", "r", lambda x: replace(_BASE, r=x), _REALS),
    ("ScenarioConfig.temperature", "temperature", lambda x: replace(_BASE, temperature=x),
     _REALS),
    ("ring_config.k", "k", lambda x: ring_config(x), _COUNTS),
    ("ring_config.feature_dim", "feature_dim", lambda x: ring_config(2, feature_dim=x), _COUNTS),
    ("ring_config.n_source", "n_source", lambda x: ring_config(2, n_source=x), _COUNTS),
    ("ring_config.seed", "seed", lambda x: ring_config(2, seed=x), _COUNTS),
    ("ring_config.r", "r", lambda x: ring_config(2, r=x), _REALS),
    ("ring_config.temperature", "temperature", lambda x: ring_config(2, temperature=x), _REALS),
    ("ring_config.radius", "radius", lambda x: ring_config(2, radius=x), _REALS),
    ("ring_config.scale", "scale", lambda x: ring_config(2, scale=x), _REALS),
    ("ring_config.ood_scale", "ood_scale", lambda x: ring_config(2, ood_scale=x), _REALS),
    ("gen_pseudo_ood.gamma", "gamma", lambda x: gen_pseudo_ood(np.zeros((2, 2)), x, 0), _REALS),
    ("subsample_to_ratio.r", "r", lambda x: subsample_to_ratio(_LABELED, x, 0), _REALS),
    ("ece.n_bins", "n_bins", lambda x: ece([0.5], [True], x), _COUNTS),
    ("rho_abs_error.rho_hat", "rho_hat", lambda x: rho_abs_error(x, 0.5), _REALS),
    ("rho_abs_error.rho_true", "rho_true", lambda x: rho_abs_error(0.5, x), _REALS),
    ("EmConfig.max_iters", "max_iters", lambda x: EmConfig(max_iters=x), _COUNTS),
    ("EmConfig.tol", "tol", lambda x: EmConfig(tol=x), _REALS),
    ("nll_grid_argmin.resolution", "resolution",
     lambda x: nll_grid_argmin(_SOURCE, _LABELED, x), _REALS),
    # TargetLabelModel names a non-finite rho_t first; run_em's rule is the open interval.
    ("run_em.init", "initial rho_t",
     lambda x: run_em(_SOURCE, _LABELED, init=TargetLabelModel([0.5, 0.5], x)), (0.0, 1.0)),
    ("SourceLabelModel.rho_s", "rho_s", lambda x: SourceLabelModel([0.5, 0.5], x), _REALS),
    ("TargetLabelModel.rho_t", "rho_t", lambda x: TargetLabelModel([0.5, 0.5], x), _REALS),
    ("extend_distribution.rho", "rho", lambda x: extend_distribution([0.5, 0.5], x), _REALS),
    ("run_sweep.workers", "workers",
     lambda x: run_sweep(_BASE, ["none"], [1.0], [0], ["uniform"], workers=x), _COUNTS),
    ("ConfusionMatrix.from_labels.k", "k", lambda x: ConfusionMatrix.from_labels([1], [1], x),
     _COUNTS),
    ("distort_scorer.a", "a", lambda x: distort_scorer(_LABELED, x, 0.5), _REALS),
    ("distort_scorer.b", "b", lambda x: distort_scorer(_LABELED, 0.25, x), _REALS),
]


@pytest.mark.parametrize("name,call,bad", [
    pytest.param(name, call, bad, id=f"{site}-{bad}")
    for site, name, call, bads in _SCALAR_SITES for bad in bads
])
def test_bad_scalar_names_its_parameter(name, call, bad):
    message = rf"^{re.escape(name)} must .*; got {re.escape(str(bad))}$"
    with pytest.raises(ValidationError, match=message):
        call(bad)


class TestArrayRule:
    def test_reals_in(self):
        values = np.array([[0.25, 1.0], [0.5, 0.75]])
        assert reals_in("x", values, 0, 1) is values  # a float64 array comes back as itself
        assert reals_in("x", [1, 2], 1).dtype == np.float64
        assert reals_in("x", [], 0).shape == (0,)
        for values, low, high, strict, message in [
            ([0.5, 0.0], 0, 1, True, "x must lie in (0, 1); got 0.0 at row 1"),
            ([[0.5, 0.5], [1.5, 0.5]], 0, 1, False, "x must lie in [0, 1]; got 1.5 at row 1"),
            ([1.0, math.nan], 1, math.inf, False,
             "x must be finite numbers >= 1; got nan at row 1"),
            ([math.inf], 0, math.inf, True, "x must be finite numbers > 0; got inf at row 0"),
            ([-math.inf], -math.inf, math.inf, False,
             "x must be finite numbers; got -inf at row 0"),
            ([0.5, "a"], 0, 1, False, "x must lie in [0, 1]; got 'a' at row 1"),
            ([[0.5], [0.5, 0.5]], 0, 1, False, "x must lie in [0, 1]; got [0.5, 0.5] at row 1"),
            ([0.5, None], 0, 1, False, "x must lie in [0, 1]; got None at row 1"),
        ]:
            with pytest.raises(RowError) as err:
                reals_in("x", values, low, high, strict)
            assert str(err.value) == message

    def test_labels_in(self):
        labels = labels_in("y", [1.0, 3.0], 3)
        assert labels.dtype == np.int64 and labels.tolist() == [1, 3]
        nulls = np.array([False, True, False])
        assert labels_in("y", [2.0, math.nan, 1.0], 3, nulls).tolist() == [2, 0, 1]
        for values, message in [
            ([1, 4], "y must be whole numbers in 1..3; got 4 at row 1"),
            ([0], "y must be whole numbers in 1..3; got 0 at row 0"),
            ([1.0, 1.7], "y must be whole numbers in 1..3; got 1.7 at row 1"),
            ([math.inf], "y must be whole numbers in 1..3; got inf at row 0"),
            (["1"], "y must be whole numbers in 1..3; got '1' at row 0"),
        ]:
            with pytest.raises(RowError) as err:
                labels_in("y", values, 3)
            assert str(err.value) == message

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_entries_are_checked_in_row_blocks(self, monkeypatch, layout):
        # Blocks of 4 rows: the first bad entry in row order is named, in any
        # block, and never one in a later row.
        monkeypatch.setattr(core, "BLOCK_CELLS", 8)
        for row in (0, 3, 4, 12):
            values = np.full((13, 2), 0.5, order=layout)
            values[row, 1] = math.nan
            values[row + 1 :, 0] = -1.0
            with pytest.raises(RowError) as err:
                reals_in("x", values, 0, 1)
            assert (err.value.row, err.value.what) == (row, "x must lie in [0, 1]; got nan")

    def test_row_error_pickles(self):
        import pickle

        err = pickle.loads(pickle.dumps(RowError("x must be finite numbers; got nan", 3)))
        assert (str(err), err.row) == ("x must be finite numbers; got nan at row 3", 3)


def _with_entry(good, row, value, col=0):
    """``good`` as nested lists, with entry ``col`` of row ``row`` replaced by ``value``."""
    rows = [list(r) if isinstance(r, (list, tuple)) else r for r in good]
    if isinstance(rows[row], list):
        rows[row][col] = value
    else:
        rows[row] = value
    return rows


def _csv_read(read, header, rows):
    """``read`` of a CSV table of ``header`` and ``rows``, each a list of cells."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text("\n".join([header] + [",".join(map(str, r)) for r in rows]) + "\n")
        return read(path)


_F3, _H3 = [[0.5, 0.5]] * 3, [0.5] * 3
_LABELED3 = RecordSet(_F3, _H3, [1, 2, 3])
_G3 = [[0.25, 0.25, 0.5]] * 3
_MEANS3 = [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]

# Every array argument check, in memory: (site, the name its message starts with,
# the call, an argument that passes but for the entry put in, that entry's row,
# an out-of-range entry or None where every finite number is in range, and an
# argument of the wrong shape or length, or None where no shape is wrong). Each
# gets NaN, both infinities, the out-of-range entry and a string in that row.
_ARRAY_SITES = [
    ("RecordSet.f", "f", lambda v: RecordSet(v, _H3), _F3, 1, 2.0, [_F3]),
    ("RecordSet.h", "h", lambda v: RecordSet(_F3, v), _H3, 1, 1.5, [0.5, 0.5]),
    ("RecordSet.y", "y", lambda v: RecordSet(_F3, _H3, v), [1, 2, 3], 1, 1.7, [1, 2]),
    ("RecordSet.with_h", "h", _LABELED3.with_h, _H3, 2, -0.5, [0.5]),
    ("EmConfig.alpha_in", "alpha_in", lambda v: EmConfig(alpha_in=v), [2.0] * 3, 1, 0.5,
     [[2.0, 2.0]]),
    ("EmConfig.alpha_out", "alpha_out", lambda v: EmConfig(alpha_out=v), (1.0, 1.0), 1, 0.5,
     (1.0, 1.0, 1.0)),
    ("TargetLabelModel.pi", "pi", lambda v: TargetLabelModel(v, 0.5), [0.5, 0.5], 1, -0.5,
     None),
    # The initial pi is a TargetLabelModel's pi, which names a non-finite entry first.
    ("run_em.init", "(initial )?pi",
     lambda v: run_em(_SOURCE, _LABELED, init=TargetLabelModel(v, 0.5)), [1.0, 0.0], 1, 0.0,
     [0.25, 0.25, 0.5]),
    ("positive_prior", "c", lambda v: mlls(_F3, v), [0.5, 0.5], 1, 0.0, [0.25, 0.25, 0.5]),
    ("SourceLabelModel.c", "c", lambda v: SourceLabelModel(v, 0.5), [0.5, 0.5], 1, 1e-7, None),
    ("w_mse.c", "c", lambda v: w_mse([0.5, 0.5], [0.5, 0.5], v), [0.5, 0.5], 1, 1e-7,
     [0.25, 0.25, 0.5]),
    ("ece", "confidences", lambda v: ece(v, [True, False, True]), _H3, 1, 1.5, [0.5, 0.5]),
    ("ece.correct", "correct", lambda v: ece(_H3, v), [1, 0, 1], 1, 0.5, None),
    ("score_mean", "scores", score_mean, _H3, 1, 1.5, []),
    ("threshold_rescale.raw_scores", "raw_scores", lambda v: threshold_rescale(v, [0.8], [0.2]),
     _H3, 1, None, None),
    ("threshold_rescale.id_ref", "id_ref", lambda v: threshold_rescale(_H3, v, [0.2]), _H3, 1,
     None, []),
    ("threshold_rescale.ood_ref", "ood_ref", lambda v: threshold_rescale(_H3, [0.8], v), _H3,
     1, None, []),
    ("ConfusionMatrix", "entries", ConfusionMatrix, [[0.5, 0.0], [0.0, 0.5]], 1, -0.5,
     [[0.5, 0.5]]),
    ("ConfusionMatrix.from_labels.predicted", "predicted",
     lambda v: ConfusionMatrix.from_labels(v, [1, 2, 2], 2), [1, 2, 2], 1, 1.7, [1, 2]),
    ("ConfusionMatrix.from_labels.true", "true",
     lambda v: ConfusionMatrix.from_labels([1, 2, 2], v, 2), [1, 2, 2], 1, 3, None),
    ("estimate_source_prior_multiclass", "mu_hat", estimate_source_prior_multiclass,
     [[0.5, 0.5], [0.5, 0.5]], 1, -0.5, [[0.5, 0.5]]),
    ("GaussianComponents.means", "means", lambda v: GaussianComponents(v, [1.0] * 3), _MEANS3,
     1, None, None),
    ("GaussianComponents.scales", "scales", lambda v: GaussianComponents(_MEANS3, v),
     [1.0] * 3, 1, 0.0, [1.0, 1.0]),
    ("LabeledDataset.features", "features", lambda v: LabeledDataset(_LABELED3, v), _MEANS3, 1,
     None, _MEANS3[:2]),
    ("gen_pseudo_ood", "source_features", lambda v: gen_pseudo_ood(v, 0.2, 0), _MEANS3, 1,
     None, None),
]

# The same rules where a table is read, a CSV row at a time: the row is named
# by its line (the header is line 1). Strings and short rows fail as CSV text,
# before these rules, and are named by line in ``tests/test_io.py``.
_RECORD_ROWS, _CORRECTED_ROWS = [[0.5, 0.5, 0.5, 1]] * 3, [[0.5, 0.5, 1, 2]] * 3
_FILE_SITES = [
    ("read_records.f", "f", partial(_csv_read, osls_io.read_records, "f1,f2,h,y"),
     _RECORD_ROWS, 1, 0, 2.0),
    ("read_records.h", "h", partial(_csv_read, osls_io.read_records, "f1,f2,h,y"),
     _RECORD_ROWS, 1, 2, 1.5),
    ("read_records.y", "y", partial(_csv_read, osls_io.read_records, "f1,f2,h,y"),
     _RECORD_ROWS, 1, 3, 1.7),
    ("read_corrected.g", "g", partial(_csv_read, osls_io.read_corrected, "g1,g2,y_hat,y"),
     _CORRECTED_ROWS, 1, 0, 2.0),
    ("read_corrected.y_hat", "y_hat",
     partial(_csv_read, osls_io.read_corrected, "g1,g2,y_hat,y"), _CORRECTED_ROWS, 1, 2, 3),
    ("read_corrected.y", "y", partial(_csv_read, osls_io.read_corrected, "g1,g2,y_hat,y"),
     _CORRECTED_ROWS, 1, 3, 0),
    ("read_features", "features", partial(_csv_read, osls_io.read_features, "x1,x2"),
     _MEANS3, 1, 0, None),
]


def _array_cases():
    for site, name, call, good, row, out_of_range, bad_shape in _ARRAY_SITES:
        entry = rf"^{name} must .*; got .* at row {row}$"
        for bad in (math.nan, math.inf, -math.inf, out_of_range, "x"):
            if bad is not None:
                yield pytest.param(name, call, _with_entry(good, row, bad), entry,
                                   id=f"{site}-{bad}")
        if bad_shape is not None:
            yield pytest.param(name, call, bad_shape, rf"\b{name}\b",
                               id=f"{site}-shape")
    for site, name, call, good, row, col, out_of_range in _FILE_SITES:
        entry = rf": line {row + 2}: {name} must .*; got [^;]*$"
        for bad in (math.nan, math.inf, -math.inf, out_of_range):
            if bad is not None:
                yield pytest.param(name, call, _with_entry(good, row, bad, col), entry,
                                   id=f"{site}-{bad}")


@pytest.mark.parametrize("name,call,bad,message", _array_cases())
def test_bad_array_names_its_parameter(name, call, bad, message):
    with pytest.raises(ValidationError) as err:
        call(bad)
    assert re.search(message, str(err.value)), str(err.value)


def test_labels_of_source_records_are_id_labels():
    message = r"^source.y must be whole numbers in 1..2; got 3 at row 2$"
    with pytest.raises(ValidationError, match=message):
        source_class_frequencies(RecordSet(_F3, _H3, [1, 2, 3]))


def _in_tmp(write, name, *args):
    """``write`` of ``args`` to a file ``name`` in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return write(Path(tmp) / name, *args)


def _jsonl_read(read, rows):
    """``read`` of a JSON lines table with one line per object of ``rows``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return read(path)


def _with_field(rows, row, key, value):
    """``rows``, JSON objects, with ``value`` at ``key`` of row ``row``, or at the first
    entry of that list when ``key`` names one."""
    rows = [dict(r) for r in rows]
    if isinstance(rows[row][key], list):
        rows[row][key] = [value] + rows[row][key][1:]
    else:
        rows[row][key] = value
    return rows


_ID3 = RecordSet(_F3, _H3, [1, 2, 1])
_JSON_RECORDS = [{"f": [0.5, 0.5], "h": 0.5, "y": 1}] * 3
_JSON_CORRECTED = [{"g": [0.25, 0.25, 0.5], "y_hat": 3, "y": 1}] * 3

# The scalar parameters and array arguments that converted numbers on their own,
# besides those of ``_SCALAR_SITES`` and ``_ARRAY_SITES``: (site, name, call, the bad
# values) and (site, name, call, an argument that passes but for the entry put in,
# that entry's row).
_MORE_SCALAR_SITES = [
    ("ShiftSpec.dirichlet", "alpha", ShiftSpec.dirichlet, _REALS),
    ("ShiftSpec.ordered_lt", "imbalance", ShiftSpec.ordered_lt, _REALS),
    ("estimate.mapls_alpha", "mapls_alpha", lambda x: estimate("mapls", _ID3, _ID3, mapls_alpha=x),
     _REALS),
    ("json_fields.float", "x", lambda x: json_fields({"x": x}, "report", {"x": float}), _REALS),
    ("json_fields.int", "x", lambda x: json_fields({"x": x}, "report", {"x": int}), _COUNTS),
    ("write_truth.rho_s", "rho_s",
     lambda x: _in_tmp(osls_io.write_truth, "t.json", [0.5, 0.5], x, [0.5, 0.5], 0.5), _REALS),
    ("write_truth.rho_t", "rho_t",
     lambda x: _in_tmp(osls_io.write_truth, "t.json", [0.5, 0.5], 0.5, [0.5, 0.5], x), _REALS),
]
_MORE_ARRAY_SITES = [
    ("ProbabilityVector", "entries", ProbabilityVector, [0.5, 0.5], 1),
    ("ProbabilityVector.as_written", "entries", ProbabilityVector.as_written, [0.5, 0.5], 1),
    ("validate_simplex", "v", validate_simplex, [0.5, 0.5], 1),
    ("extend_distribution.base", "base", lambda v: extend_distribution(v, 0.5), [0.5, 0.5], 1),
    ("w_mse.pi_hat", "pi_hat", lambda v: w_mse(v, [0.5, 0.5], [0.5, 0.5]), [0.5, 0.5], 1),
    ("w_mse.pi_true", "pi_true", lambda v: w_mse([0.5, 0.5], v, [0.5, 0.5]), [0.5, 0.5], 1),
    ("bbse.target_pred_freq", "target_pred_freq",
     lambda v: bbse(ConfusionMatrix([[0.5, 0.0], [0.0, 0.5]]), v), [0.5, 0.5], 1),
    ("correct_records.pi", "pi", lambda v: correct_records(_ID3, [0.5, 0.5], v), [0.5, 0.5], 1),
    ("mlls.target_f", "the posteriors", lambda v: mlls(v, [0.5, 0.5]), _F3, 1),
    ("mapls.target_f", "the posteriors", lambda v: mapls(v, [0.5, 0.5], [2.0, 2.0]), _F3, 1),
    ("argmax_labels", "the posteriors", argmax_labels, _F3, 1),
    ("predicted_class_frequencies", "the posteriors", predicted_class_frequencies, _F3, 1),
    ("ring_config.c", "c", lambda v: ring_config(2, c=v), [0.5, 0.5], 1),
    ("top1_accuracy.predictions", "predictions", lambda v: top1_accuracy(v, [1, 2, 1]),
     [1, 2, 1], 1),
    ("top1_accuracy.truths", "truths", lambda v: top1_accuracy([1, 2, 1], v), [1, 2, 1], 1),
    ("log_pdf", "x", GaussianComponents(_MEANS3, [1.0] * 3).log_pdf, _MEANS3, 1),
    ("oracle_scores", "x", Scenario(_BASE).oracle_scores, _MEANS3, 1),
    ("json_fields.ndarray", "c", lambda v: json_fields({"c": v}, "report", {"c": np.ndarray}),
     [0.5, 0.5], 1),
    ("json_fields.ProbabilityVector", "c",
     lambda v: json_fields({"c": v}, "report", {"c": ProbabilityVector}), [0.5, 0.5], 1),
    ("write_truth.c", "c",
     lambda v: _in_tmp(osls_io.write_truth, "t.json", v, 0.7, [0.5, 0.5], 0.5), [0.5, 0.5], 1),
    ("write_corrected.g", "g",
     lambda v: _in_tmp(osls_io.write_corrected, "c.jsonl", v, [3, 3, 3]), _G3, 1),
    ("write_corrected.y_hat", "y_hat",
     lambda v: _in_tmp(osls_io.write_corrected, "c.jsonl", _G3, v), [3, 3, 3], 1),
    ("write_corrected.y", "y",
     lambda v: _in_tmp(osls_io.write_corrected, "c.csv", _G3, [3, 3, 3], v), [1, 2, 3], 1),
    ("write_features", "features", lambda v: _in_tmp(osls_io.write_features, "x.csv", v),
     _MEANS3, 1),
]
# JSON lines tables, a bad value on line 3: (site, name, reader, rows, key).
_JSONL_SITES = [
    ("read_records.f", "f", osls_io.read_records, _JSON_RECORDS, "f"),
    ("read_records.h", "h", osls_io.read_records, _JSON_RECORDS, "h"),
    ("read_records.y", "y", osls_io.read_records, _JSON_RECORDS, "y"),
    ("read_corrected.g", "g", osls_io.read_corrected, _JSON_CORRECTED, "g"),
    ("read_corrected.y_hat", "y_hat", osls_io.read_corrected, _JSON_CORRECTED, "y_hat"),
    ("read_corrected.y", "y", osls_io.read_corrected, _JSON_CORRECTED, "y"),
]


def _not_number_cases():
    """Each site given a numeric string and True, where a number belongs."""
    for site, name, call, bads in _SCALAR_SITES + _MORE_SCALAR_SITES:
        if bads in (_REALS, _COUNTS):
            for bad in ("0.5" if bads is _REALS else "3", True):
                message = rf"\b{re.escape(name)} must .*; got {re.escape(repr(bad))}$"
                yield pytest.param(call, bad, message, id=f"{site}-{bad!r}")
    for site, name, call, good, row, *_ in _ARRAY_SITES + _MORE_ARRAY_SITES:
        for bad in ("0.5", True):
            yield pytest.param(call, _with_entry(good, row, bad),
                               rf"\b{name} must .*; got .* at row {row}$", id=f"{site}-{bad!r}")
    for site, name, read, rows, key in _JSONL_SITES:
        for bad in ("1", True):
            yield pytest.param(partial(_jsonl_read, read), _with_field(rows, 2, key, bad),
                               rf"t\.jsonl: line 3: {name} must .*; got [^;]*$",
                               id=f"{site}-{bad!r}")


@pytest.mark.parametrize("call,bad,message", _not_number_cases())
def test_numeric_string_and_bool_are_not_numbers(call, bad, message):
    # A number is an int or a float, numpy's included: never a bool or a string,
    # whether it comes from a file or a library call.
    with pytest.raises(ValidationError) as err:
        call(bad)
    assert re.search(message, str(err.value)), str(err.value)
