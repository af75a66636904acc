import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osls.core import ValidationError
from osls.metrics import EvalReport, ece, rho_abs_error, top1_accuracy, w_mse


class TestWMse:
    def test_zero_at_truth(self):
        assert w_mse([0.6, 0.4], [0.6, 0.4], [0.5, 0.5]) == 0.0

    def test_hand_value(self):
        assert w_mse([0.5, 0.5], [0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.04)

    def test_quadratic_scaling(self):
        base = w_mse([0.55, 0.45], [0.6, 0.4], [0.5, 0.5])
        doubled = w_mse([0.5, 0.5], [0.6, 0.4], [0.5, 0.5])
        assert doubled == pytest.approx(4.0 * base)

    def test_rejects_tiny_c(self):
        with pytest.raises(ValidationError):
            w_mse([0.5, 0.5], [0.5, 0.5], [1.0 - 1e-7, 1e-7])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
    def test_nonnegative_iff_equal(self, raw):
        pi = np.array(raw) / np.sum(raw)
        c = np.full(pi.size, 1.0 / pi.size)
        assert w_mse(pi, pi, c) == 0.0
        shifted = pi.copy()
        shifted[0], shifted[1] = shifted[1], shifted[0]
        if abs(shifted[0] - pi[0]) > 1e-12:
            assert w_mse(shifted, pi, c) > 0.0


class TestTop1:
    def test_identical(self):
        assert top1_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert top1_accuracy([1, 1], [2, 2]) == 0.0

    def test_partial(self):
        assert top1_accuracy([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            top1_accuracy([1], [1, 2])

    def test_permutation_invariant(self, rng):
        pred = rng.integers(1, 4, 100)
        true = rng.integers(1, 4, 100)
        perm = rng.permutation(100)
        assert top1_accuracy(pred, true) == top1_accuracy(pred[perm], true[perm])


class TestEce:
    def test_perfectly_calibrated_bins(self, rng):
        # construct bins whose accuracy equals their mean confidence
        confidences, correct = [], []
        for conf in (0.1, 0.5, 0.9):
            n = 2000
            confidences.append(np.full(n, conf))
            correct.append(rng.random(n) < conf)
        value = ece(np.concatenate(confidences), np.concatenate(correct), n_bins=10)
        assert value <= 1 / 20 + 0.02

    def test_overconfident(self):
        correct = np.r_[np.ones(50, dtype=bool), np.zeros(50, dtype=bool)]
        assert ece(np.ones(100), correct) == pytest.approx(0.5)

    def test_boundary_binning(self):
        # 0.2 sits on the bin edge and must fall in the lower bin: with 5 bins
        # the (0, 0.2] bin holds both samples
        assert ece([0.2, 0.15], [True, False], n_bins=5) == pytest.approx(abs(0.5 - 0.175))

    def test_top_bin_for_one(self):
        assert ece(np.ones(10), np.ones(10, dtype=bool), n_bins=15) == 0.0

    def test_empty_error(self):
        with pytest.raises(ValidationError):
            ece([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            ece([0.5, 0.5], [True])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()), min_size=1, max_size=60))
    def test_range_and_permutation_invariance(self, pairs):
        confidences = np.array([p for p, _ in pairs])
        correct = np.array([c for _, c in pairs])
        value = ece(confidences, correct)
        assert 0.0 <= value <= 1.0
        assert ece(confidences[::-1], correct[::-1]) == pytest.approx(value)


class TestRhoAbsError:
    def test_zero(self):
        assert rho_abs_error(0.5, 0.5) == 0.0

    def test_basic(self):
        assert rho_abs_error(0.2, 0.9) == pytest.approx(0.7)

    def test_symmetry(self):
        assert rho_abs_error(0.3, 0.8) == rho_abs_error(0.8, 0.3)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            rho_abs_error(1.2, 0.5)


def test_eval_report_dict():
    report = EvalReport(w_mse=0.1, top1=None, rho_t_abs_err=0.05)
    assert report.to_dict() == {"w_mse": 0.1, "rho_t_abs_err": 0.05}
