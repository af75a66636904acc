"""Memory of the estimate and correct path, and the bits of its in-place builders.

Each call builds its one N x (K+1) (or N x K) matrix in a fresh array and then
works on it in place. ``TestTransientPeak`` pins that with tracemalloc: beyond
its inputs, a call allocates at most 1.25 times one N x (K+1) float64 matrix.
``TestBuildersMatchOldExpressions`` restates the out-of-place expressions the
builders replaced and asserts the same bytes, so every output stays as it was.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from osls import baselines as bl
from osls import em
from osls.core import RecordSet, SourceLabelModel, extend_distribution
from osls.em import EmConfig
from osls.pipeline import correct_records, estimate

N, K = 20_000, 50
MATRIX_BYTES = N * (K + 1) * 8
BOUND = 1.25 * MATRIX_BYTES


def _records(rng, n, k, labels):
    f = rng.dirichlet(np.ones(k), size=n)
    y = rng.integers(1, k + 1, n) if labels else None
    return RecordSet(f, rng.random(n), y)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    source = _records(rng, N, K, labels=True)
    target = _records(rng, N, K, labels=False)
    model = SourceLabelModel(rng.dirichlet(np.full(K, 20.0)), 0.7)
    pi_ext = extend_distribution(rng.dirichlet(np.ones(K)), 0.4)
    return source, target, model, pi_ext


def _transient_peak(call) -> int:
    """Bytes allocated at the peak of ``call()``, counting what it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTransientPeak:
    def test_recordset(self):
        rng = np.random.default_rng(1)
        f, h = rng.dirichlet(np.ones(K), size=N), rng.random(N)
        assert _transient_peak(lambda: RecordSet(f, h)) <= BOUND

    def test_run_em(self, data):
        _, target, model, _ = data
        config = EmConfig(max_iters=6)
        assert _transient_peak(lambda: em.run_em(model, target, config)) <= BOUND

    @pytest.mark.parametrize("method", ["mlls", "mapls", "bbse"])
    def test_closed_set_estimate(self, data, method):
        source, target, _, _ = data
        config = EmConfig(max_iters=6)
        peak = _transient_peak(lambda: estimate(method, source, target, em_config=config))
        assert peak <= BOUND

    def test_correct_records(self, data):
        _, target, model, pi_ext = data
        peak = _transient_peak(lambda: correct_records(target, model.extended(), pi_ext))
        assert peak <= BOUND


# Old expressions, restated as they stood before the builders worked in place.

def _old_normalized(f):
    rows = np.clip(f, 0.0, None)
    return rows / rows.sum(axis=1, keepdims=True)


def _old_extended_f(records):
    return np.concatenate([records.f * records.h[:, None], (1.0 - records.h)[:, None]], axis=1)


def _inputs(k, layout, seed=0, n=257):
    """``n`` probability rows over ``k`` classes in ``layout``, some with entries
    a little below zero, within the simplex tolerance."""
    rng = np.random.default_rng(seed)
    f = rng.dirichlet(np.full(k, 0.3), size=n)
    if k > 1:
        f[::5, 1] += f[::5, 0] + 4e-10
        f[::5, 0] = -4e-10
        f[3::7, 0] += f[3::7, -1] + 2e-10
        f[3::7, -1] = -2e-10
    return {
        "C": lambda a: a,
        "F": np.asfortranarray,
        "row-strided": lambda a: np.repeat(a, 2, axis=0)[::2],
        "F-row-strided": lambda a: np.asfortranarray(np.repeat(a, 2, axis=0))[::2],
        "reversed": lambda a: a[::-1],
    }[layout](f), rng.random(n)


LAYOUTS = ["C", "F", "row-strided", "F-row-strided", "reversed"]
# Below 8 entries numpy sums a row one entry at a time; from 8 on, pairwise.
KS = [1, 2, 7, 8, 9, 33, 100]


def _same(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("k", KS)
class TestBuildersMatchOldExpressions:
    def test_recordset(self, k, layout):
        f, h = _inputs(k, layout)
        kept = f.copy()
        rs = RecordSet(f, h)
        _same(rs.f, _old_normalized(f))
        assert np.array_equal(f, kept)  # the caller's array is not normalized in place
        assert not np.shares_memory(rs.f, f)

    def test_extended_f(self, k, layout):
        rs = RecordSet(*_inputs(k, layout))
        old = _old_extended_f(rs)
        new = rs.extended_f()
        _same(new, old)
        assert new.strides == old.strides  # the same layout, so the same row sums
        _same(rs.take(np.arange(len(rs))[::-3]).extended_f(),
              _old_extended_f(rs.take(np.arange(len(rs))[::-3])))
        assert rs.extended_f(order="F").flags.f_contiguous

    def test_scaled_outputs(self, k, layout):
        rs = RecordSet(*_inputs(k, layout))
        source = SourceLabelModel(np.random.default_rng(1).dirichlet(np.full(k, 5.0)), 0.6)
        old = np.asfortranarray(_old_extended_f(rs))
        old /= source.extended().entries
        new = em._scaled_outputs(source, rs)
        _same(new, old)
        assert new.flags.f_contiguous

    @pytest.mark.parametrize("block", [None, 4])
    def test_prob_rows(self, k, layout, block, monkeypatch):
        # A block of 4 rows leaves one row over at n = 257, which joins the block before.
        if block is not None:
            monkeypatch.setattr(bl, "_ROW_SUM_BLOCK", block * k)
        f, _ = _inputs(k, layout)
        old = np.ascontiguousarray(_old_normalized(f))
        _same(bl._clipped_row_sums(f), np.clip(f, 0.0, None).sum(axis=1))
        _same(bl._coerce_prob_rows(f), old)
        c = np.random.default_rng(2).dirichlet(np.full(k, 5.0))
        w = bl._coerce_prob_rows(f, order="F")
        w /= c
        _same(w, np.asfortranarray(old / c))
        assert w.flags.f_contiguous
        np.testing.assert_array_equal(bl.argmax_labels(f), old.argmax(axis=1) + 1)

    def test_correct_records(self, k, layout):
        rs = RecordSet(*_inputs(k, layout))
        rng = np.random.default_rng(3)
        c_ext = extend_distribution(rng.dirichlet(np.full(k, 5.0)), 0.6)
        pi_ext = extend_distribution(rng.dirichlet(np.ones(k)), 0.3)
        unnorm = _old_extended_f(rs) * (pi_ext.entries / c_ext.entries)
        old = unnorm / unnorm.sum(axis=1)[:, None]
        posteriors, labels = correct_records(rs, c_ext, pi_ext)
        _same(posteriors, old)
        np.testing.assert_array_equal(labels, old.argmax(axis=1) + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_short_tables(n):
    f, h = _inputs(9, "F", n=n)
    _same(RecordSet(f, h).f, _old_normalized(f))
    _same(bl._coerce_prob_rows(f), np.ascontiguousarray(_old_normalized(f)))
