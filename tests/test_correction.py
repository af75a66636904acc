import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osls.core import (
    DegenerateSample,
    ExtendedDistribution,
    ProbabilityVector,
    RecordSet,
    ValidationError,
    extend_distribution,
)
from osls.correction import correct_posterior_closed_set, correct_records


def _records(*rows):
    """A RecordSet with one row per (f, h) pair."""
    return RecordSet(np.array([f for f, _ in rows], dtype=float), np.array([h for _, h in rows]))


class TestCorrectPosterior:
    def test_identity_reweighting(self):
        c_ext = extend_distribution([0.3, 0.7], 0.6)
        rec = _records(([0.2, 0.8], 0.9))
        posteriors, _ = correct_records(rec, c_ext, c_ext)
        np.testing.assert_allclose(posteriors, rec.extended_f(), atol=1e-15)

    def test_point_mass_preserved(self):
        c_ext = extend_distribution([0.5, 0.5], 0.5)
        pi_ext = extend_distribution([0.9, 0.1], 0.8)
        posteriors, _ = correct_records(_records(([1.0, 0.0], 1.0)), c_ext, pi_ext)
        np.testing.assert_allclose(posteriors, [[1.0, 0.0, 0.0]], atol=1e-15)

    def test_single_class_direct(self):
        c_ext = ExtendedDistribution([0.5, 0.5])
        pi_ext = ExtendedDistribution([0.8, 0.2])
        posteriors, _ = correct_records(_records(([1.0], 0.5)), c_ext, pi_ext)
        np.testing.assert_allclose(posteriors, [[0.8, 0.2]], atol=1e-15)

    def test_zero_normalizer(self):
        c_ext = extend_distribution([1.0], 0.5)
        pi_ext = extend_distribution([1.0], 1.0)  # no OOD mass
        rec = _records(([1.0], 0.0))  # pure-OOD record
        with pytest.raises(DegenerateSample):
            correct_records(rec, c_ext, pi_ext)

    def test_requires_positive_source(self):
        c_ext = extend_distribution([1.0], 1.0)  # zero OOD entry
        pi_ext = extend_distribution([1.0], 0.5)
        with pytest.raises(ValidationError):
            correct_records(_records(([1.0], 0.5)), c_ext, pi_ext)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 20.0))
    def test_argmax_invariant_to_ratio_scaling(self, scale):
        rec = _records(([0.5, 0.3, 0.2], 0.7))
        c_ext = extend_distribution([0.2, 0.3, 0.5], 0.6)
        pi_ext = extend_distribution([0.5, 0.25, 0.25], 0.4)
        _, labels = correct_records(rec, c_ext, pi_ext)
        ratios = pi_ext.entries / c_ext.entries
        scaled = scale * ratios * rec.extended_f()[0]
        assert labels[0] == int(np.argmax(scaled)) + 1


class TestClassify:
    """correct_records labels each row with the 1-based argmax of its posterior."""

    @staticmethod
    def _label(posterior):
        # Identity reweighting on a K=1 or K>1 set whose extended rows equal
        # ``posterior``: uniform c and pi, rho = 1/2, h = 1 - last entry.
        posterior = np.asarray(posterior, dtype=float)
        k = posterior.size - 1
        h = 1.0 - posterior[-1]
        f = posterior[:-1] / h if h > 0.0 else np.full(k, 1.0 / k)
        ext = extend_distribution(np.full(k, 1.0 / k), 0.5)
        posteriors, labels = correct_records(_records((f, h)), ext, ext)
        np.testing.assert_allclose(posteriors[0], posterior, atol=1e-15)
        return int(labels[0])

    def test_argmax(self):
        assert self._label([0.1, 0.7, 0.2]) == 2

    def test_tie_toward_smallest(self):
        assert self._label([0.5, 0.5]) == 1

    def test_ood_class(self):
        k = 4
        one_hot = np.zeros(k + 1)
        one_hot[k] = 1.0
        assert self._label(one_hot) == k + 1


class TestClosedSet:
    def test_identity(self):
        f = ProbabilityVector([0.3, 0.7])
        c = ProbabilityVector([0.5, 0.5])
        out = correct_posterior_closed_set(f, c, c)
        np.testing.assert_allclose(out.entries, f.entries, atol=1e-15)

    def test_uniform_inputs(self):
        out = correct_posterior_closed_set([0.5, 0.5], [0.5, 0.5], [0.9, 0.1])
        np.testing.assert_allclose(out.entries, [0.9, 0.1], atol=1e-15)

    def test_hand_arithmetic(self):
        out = correct_posterior_closed_set([0.8, 0.2], [0.4, 0.6], [0.6, 0.4])
        unnorm = np.array([0.6 / 0.4 * 0.8, 0.4 / 0.6 * 0.2])
        np.testing.assert_allclose(out.entries, unnorm / unnorm.sum(), atol=1e-12)
        np.testing.assert_allclose(out.entries, [0.9, 0.1], atol=1e-12)


class TestCorrectRecords:
    def test_matches_per_record(self, rng):
        f = rng.dirichlet(np.ones(3), size=50)
        h = rng.random(50)
        records = RecordSet(f, h)
        c_ext = extend_distribution([0.2, 0.4, 0.4], 0.7)
        pi_ext = extend_distribution([0.6, 0.2, 0.2], 0.4)
        posteriors, labels = correct_records(records, c_ext, pi_ext)
        ratios = pi_ext.entries / c_ext.entries
        for i in (0, 13, 49):
            extended = np.append(h[i] * f[i], 1.0 - h[i])
            want = ratios * extended / np.sum(ratios * extended)
            np.testing.assert_allclose(posteriors[i], want, rtol=0, atol=1e-12)
            assert labels[i] == int(np.argmax(want)) + 1

    def test_on_simplex(self, rng):
        f = rng.dirichlet(np.ones(4), size=200)
        h = rng.random(200)
        posteriors, _ = correct_records(
            RecordSet(f, h),
            extend_distribution(np.full(4, 0.25), 0.5),
            extend_distribution([0.7, 0.1, 0.1, 0.1], 0.9),
        )
        np.testing.assert_allclose(posteriors.sum(axis=1), 1.0, atol=1e-12)
        assert posteriors.min() >= 0.0
