import numpy as np
import pytest

from osls import baselines as bl
from osls import core
from osls.baselines import (
    ConfusionMatrix,
    _cond_1,
    argmax_labels,
    bbse,
    mapls,
    mlls,
    predicted_class_frequencies,
)
from osls.core import IllConditioned, ProbabilityVector, ValidationError
from osls.em import EmConfig, fit
from osls.pipeline import correct_records


def _closed_set_grid_argmin(f, c, resolution=0.001):
    """Brute-force closed-set NLL oracle over pi_1 for K = 2."""
    ticks = np.arange(0.0, 1.0 + resolution / 2, resolution)
    ratios = f / c
    inner = np.outer(ticks, ratios[:, 0]) + np.outer(1.0 - ticks, ratios[:, 1])
    nll = -np.sum(np.log(np.maximum(inner, 1e-300)), axis=1)
    return ticks[int(np.argmin(nll))]


class TestMlls:
    def test_point_mass(self):
        pi = mlls(np.array([[1.0, 0.0]]), ProbabilityVector([0.5, 0.5])).pi_final
        np.testing.assert_allclose(pi.entries, [1.0, 0.0], atol=1e-12)

    def test_fixed_point(self):
        c = ProbabilityVector([0.3, 0.7])
        f = np.tile(c.entries, (20, 1))
        out = mlls(f, c)
        np.testing.assert_allclose(out.pi_final.entries, c.entries, atol=1e-12)
        np.testing.assert_allclose(out.nll_per_iter, out.nll_per_iter[0], atol=1e-9)

    def test_matches_grid_oracle(self):
        f = np.array([[0.9, 0.1]] * 9 + [[0.1, 0.9]])
        c = ProbabilityVector([0.5, 0.5])
        pi = mlls(f, c, max_iters=2000, tol=1e-13).pi_final
        oracle = _closed_set_grid_argmin(f, c.entries)
        assert abs(pi.entries[0] - oracle) <= 2e-3

    def test_trace_non_increasing(self, rng):
        f = rng.dirichlet(np.ones(4), size=300)
        c = ProbabilityVector(np.full(4, 0.25))
        trace = mlls(f, c).nll_per_iter
        assert np.all(np.diff(trace) <= 1e-9)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            mlls(np.empty((0, 2)), ProbabilityVector([0.5, 0.5]))


class TestMapls:
    def test_all_ones_equals_mlls_bitwise(self, rng):
        f = rng.dirichlet(np.ones(3), size=100)
        c = ProbabilityVector(np.full(3, 1 / 3))
        fit_mlls = mlls(f, c)
        fit_mapls = mapls(f, c, np.ones(3))
        assert np.array_equal(fit_mlls.pi_final.entries, fit_mapls.pi_final.entries)
        assert np.array_equal(fit_mlls.nll_per_iter, fit_mapls.nll_per_iter)

    def test_prior_mode_zero_data(self):
        # N = 0 through the EM loop: the M-step lands on the prior mode
        out = fit(np.zeros((0, 2)), np.array([0.5, 0.5]), None,
                  EmConfig(5, 0.0, alpha_in=np.array([3.0, 2.0])))
        np.testing.assert_allclose(out.pi_final.entries, [2 / 3, 1 / 3])

    def test_direct_substitution(self):
        # one-hot rows give column sums [3, 1] in the first E-step
        f = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]])
        c = ProbabilityVector([0.5, 0.5])
        pi = mapls(f, c, np.array([2.0, 2.0]), max_iters=1).pi_final
        np.testing.assert_allclose(pi.entries, [4 / 6, 2 / 6], atol=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValidationError):
            mapls(np.array([[0.5, 0.5]]), ProbabilityVector([0.5, 0.5]), np.array([0.5, 2.0]))


class TestBbse:
    def test_perfect_classifier(self):
        c = np.array([0.25, 0.75])
        confusion = ConfusionMatrix(np.diag(c))
        q = ProbabilityVector([0.7, 0.3])
        pi = bbse(confusion, q)
        np.testing.assert_allclose(pi.entries, q.entries, atol=1e-10)

    def test_no_shift_identity_weights(self):
        cm = np.array([[0.35, 0.10], [0.05, 0.50]])
        confusion = ConfusionMatrix(cm)
        q = cm.sum(axis=1)  # marginal predicted frequencies of the hold-out
        pi = bbse(confusion, ProbabilityVector(q))
        np.testing.assert_allclose(pi.entries, confusion.class_marginals(), atol=1e-10)

    def test_negative_weight_is_clipped_to_exactly_zero(self):
        # C w = q gives w = (8/3, -2/3): class 2 gets no share at all.
        confusion = ConfusionMatrix(np.array([[0.4, 0.1], [0.1, 0.4]]))
        pi = bbse(confusion, ProbabilityVector([1.0, 0.0]))
        np.testing.assert_array_equal(pi.entries, [1.0, 0.0])

    def test_hand_solved_two_by_two(self):
        confusion = ConfusionMatrix(np.array([[0.4, 0.1], [0.1, 0.4]]))
        q = np.array([0.7, 0.3])
        # independent 2x2 closed-form inverse
        a, b, c_, d = 0.4, 0.1, 0.1, 0.4
        det = a * d - b * c_
        w = np.array([(d * q[0] - b * q[1]) / det, (-c_ * q[0] + a * q[1]) / det])
        expected = np.maximum(w, 0.0) * confusion.class_marginals()
        expected /= expected.sum()
        pi = bbse(confusion, ProbabilityVector(q))
        np.testing.assert_allclose(pi.entries, expected, atol=1e-12)

    def test_negative_weights_clipped(self):
        confusion = ConfusionMatrix(np.array([[0.1, 0.4], [0.4, 0.1]]))
        pi = bbse(confusion, ProbabilityVector([0.99, 0.01]))
        assert np.all(pi.entries >= 0.0)
        assert abs(pi.entries.sum() - 1.0) < 1e-12

    def test_singular_raises(self):
        confusion = ConfusionMatrix(np.array([[0.25, 0.25], [0.25, 0.25]]))
        with pytest.raises(IllConditioned):
            bbse(confusion, ProbabilityVector([0.5, 0.5]))

    def test_cond_1_matches_numpy(self, rng):
        for k in (2, 5, 30):
            cm = rng.dirichlet(np.ones(k), size=k) + 3.0 * np.eye(k)
            cm /= cm.sum()
            assert _cond_1(cm) == pytest.approx(np.linalg.cond(cm, 1), rel=1e-12)

    def test_near_singular_raises(self):
        eps = 1e-12
        confusion = ConfusionMatrix(np.array([[0.25, 0.25], [0.25, 0.25 + eps]]) / (1.0 + eps))
        with pytest.raises(IllConditioned):
            bbse(confusion, ProbabilityVector([0.5, 0.5]))

    def test_from_labels(self):
        pred = np.array([1, 1, 2, 2, 2])
        true = np.array([1, 2, 2, 2, 1])
        confusion = ConfusionMatrix.from_labels(pred, true, 2)
        np.testing.assert_allclose(
            confusion.entries, np.array([[1, 1], [1, 2]]) / 5.0
        )

    def test_helpers(self):
        f = np.array([[0.9, 0.1], [0.2, 0.8], [0.8, 0.2]])
        np.testing.assert_array_equal(argmax_labels(f), [1, 2, 1])
        freq = predicted_class_frequencies(f)
        np.testing.assert_allclose(freq.entries, [2 / 3, 1 / 3])


# Nine rows, all tied but rows 2 and 6; a row of a third below zero within the
# simplex tolerance; and a tie in the lone last row.
TIED_ROWS = np.array([
    [0.5, 0.5, 0.0], [0.25, 0.375, 0.375], [0.1, 0.2, 0.7], [0.4, 0.2, 0.4],
    [0.0, 0.5, 0.5], [0.5 + 2e-10, 0.5, -2e-10], [0.2, 0.7, 0.1], [1 / 3, 1 / 3, 1 / 3],
    [0.0, 0.5, 0.5],
])


@pytest.mark.parametrize("layout", ["C", "F", "reversed"])
@pytest.mark.parametrize("block", [None, 3, 4])
def test_argmax_labels_in_blocks(monkeypatch, layout, block):
    # Blocks of 3 rows end at rows 2 and 5; blocks of 4 end at rows 3 and 7 and
    # leave row 8 alone, so it joins the block before it.
    if block is not None:
        monkeypatch.setattr(core, "BLOCK_CELLS", 3 * block)
    f = {"C": TIED_ROWS, "F": np.asfortranarray(TIED_ROWS), "reversed": TIED_ROWS[::-1]}[layout]
    expected = np.array([1, 2, 3, 1, 2, 1, 2, 1, 2])
    if layout == "reversed":
        expected = expected[::-1]
    rows = np.clip(f, 0.0, None)
    np.testing.assert_array_equal(argmax_labels(f), expected)
    old = (rows / rows.sum(axis=1)[:, None]).argmax(axis=1) + 1
    np.testing.assert_array_equal(argmax_labels(f), old)
    counts = np.bincount(expected - 1, minlength=3)
    assert predicted_class_frequencies(f).entries.tolist() == (counts / counts.sum()).tolist()
    bad = np.array(f)
    bad[8] = [0.6, 0.5, 0.0]
    message = "^the posteriors must be probability vectors .* at row 8$"
    with pytest.raises(ValidationError, match=message):
        argmax_labels(bad)


# Every reader of posterior rows checks them by ``core.normalized_rows``. With
# blocks of 4 rows, 13 rows make blocks [0, 4), [4, 8) and [8, 13): the lone
# last row joins the block before it.
ROW_READERS = {
    "RecordSet": lambda f: core.RecordSet(f, np.full(len(f), 0.5)),
    "RecordSet._adopt": lambda f: core.RecordSet._adopt(f.copy(), np.full(len(f), 0.5)),
    "mlls": lambda f: mlls(f, [0.5, 0.5]),
    "mapls": lambda f: mapls(f, [0.5, 0.5], [2.0, 2.0]),
    "argmax_labels": argmax_labels,
    "predicted_class_frequencies": predicted_class_frequencies,
}


@pytest.mark.parametrize("reader", ROW_READERS)
@pytest.mark.parametrize("row", [1, 5, 12])
def test_readers_name_the_same_first_bad_row(monkeypatch, reader, row):
    monkeypatch.setattr(core, "BLOCK_CELLS", 2 * 4)
    f = np.full((13, 2), 0.5)
    f[min(row + 4, 12):] = [1.2, -0.2]  # later rows off the simplex are not named
    f[row] = [0.6, 0.5]
    with pytest.raises(ValidationError, match=f"^.+ must be probability vectors .* at row {row}$"):
        ROW_READERS[reader](f)


@pytest.mark.parametrize("c", [[1.0, 0.0], [0.5, 0.25, 0.25]], ids=["zero", "length"])
def test_mlls_and_correct_records_reject_the_same_priors(c):
    f = np.array([[0.7, 0.3], [0.2, 0.8]])
    with pytest.raises(ValidationError) as fit_error:
        mlls(f, c)
    with pytest.raises(ValidationError) as correct_error:
        correct_records(core.RecordSet(f, np.ones(2)), c, [0.5, 0.5])
    assert str(fit_error.value) == str(correct_error.value)
