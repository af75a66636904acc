import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osls import core
from osls.core import (
    ProbabilityVector,
    RecordSet,
    SourceLabelModel,
    TargetLabelModel,
    ValidationError,
    extend_distribution,
    real_in,
    validate_simplex,
    whole_number,
)
from osls.baselines import ConfusionMatrix
from osls.em import EmConfig, run_em
from osls.estimators import (
    BoundReport,
    ScoreMeans,
    bound_coverage_rho_s,
    bound_coverage_rho_t,
    correct_rho,
    rescale_mu0,
    rho_s_bound,
    rho_t_bound,
)
from osls.metrics import ece, rho_abs_error
from osls.pipeline import run_sweep
from osls.simulate import (
    ShiftSpec,
    dirichlet_shift,
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
                with pytest.raises(ValidationError, match=f"row {row} has a non-finite value"):
                    RecordSet(ff, hh)
                with pytest.raises(ValidationError, match=f"row {row} has a non-finite value"):
                    RecordSet._adopt(ff, hh)

    def test_rejects_rows_off_the_simplex_naming_the_first(self, monkeypatch):
        for n, block, row in self.BLOCK_CASES:
            if block is not None:
                monkeypatch.setattr(core, "BLOCK_CELLS", 2 * block)
            f, h = np.full((n, 2), 0.5), np.full(n, 0.5)
            f[row] = [0.6, 0.5]
            f[n - 1, 1] = -0.1  # a later bad row is not the one named
            f = np.asfortranarray(f)
            with pytest.raises(ValidationError, match=f"row {row} of f is not a probability"):
                RecordSet(f, h)
            # A non-finite value is named first, even in a later block.
            f[n - 1, 1] = np.nan
            with pytest.raises(ValidationError, match=f"row {n - 1} has a non-finite value"):
                RecordSet(f, h)

    @pytest.mark.parametrize("bad", [1.9, -0.2, 1.0 + 2e-9])
    def test_rejects_h_outside_unit_interval_naming_the_row(self, bad):
        f = np.full((3, 2), 0.5)
        with pytest.raises(ValidationError, match="row 2 of h is not in"):
            RecordSet(f, np.array([0.5, 1.0 + 5e-10, bad]))

    def test_rejects_non_integral_labels(self):
        f, h = np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5])
        for bad in (1.7, np.nan, np.inf):
            with pytest.raises(ValidationError, match="at row 1 is not an integer"):
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
    ("bound_coverage_rho_t.b", "a + b", lambda x: bound_coverage_rho_t(b=x), _REALS),
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
    ("gen_pseudo_ood.gamma", "gamma", lambda x: gen_pseudo_ood(np.zeros((2, 2)), x, 0), _REALS),
    ("subsample_to_ratio.r", "r", lambda x: subsample_to_ratio(_LABELED, x, 0), _REALS),
    ("ece.n_bins", "n_bins", lambda x: ece([0.5], [True], x), _COUNTS),
    ("rho_abs_error.rho_hat", "rho_hat", lambda x: rho_abs_error(x, 0.5), _REALS),
    ("rho_abs_error.rho_true", "rho_true", lambda x: rho_abs_error(0.5, x), _REALS),
    ("EmConfig.max_iters", "max_iters", lambda x: EmConfig(max_iters=x), _COUNTS),
    ("EmConfig.tol", "tol", lambda x: EmConfig(tol=x), _REALS),
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
]


@pytest.mark.parametrize("name,call,bad", [
    pytest.param(name, call, bad, id=f"{site}-{bad}")
    for site, name, call, bads in _SCALAR_SITES for bad in bads
])
def test_bad_scalar_names_its_parameter(name, call, bad):
    message = rf"^{re.escape(name)} must .*; got {re.escape(str(bad))}$"
    with pytest.raises(ValidationError, match=message):
        call(bad)
