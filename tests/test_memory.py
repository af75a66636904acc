"""Memory of the estimate, correct and sampling paths, and the bits of their builders.

Each estimate or correct call builds its one N x (K+1) (or N x K) matrix in a
fresh array and then works on it in place. ``TestTransientPeak`` pins that with
tracemalloc: beyond its inputs, a call allocates at most 1.25 times one
N x (K+1) float64 matrix. Sampling's ``Scenario.oracle_scores`` holds two: the
joint log densities and the posteriors it returns.
``TestBuildersMatchOldExpressions`` and ``TestSamplingMatchesOldExpressions``
restate the out-of-place expressions the builders replaced and assert the same
bytes, so every output stays as it was.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from osls import baselines as bl
from osls import em
from osls import simulate
from osls.core import RecordSet, SourceLabelModel, extend_distribution
from osls.em import EmConfig
from osls.pipeline import correct_records, estimate
from osls.simulate import GaussianComponents, Scenario, ring_config

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

    @pytest.mark.parametrize("dim, temperature", [(2, 1.0), (2, 1.7), (9, 1.0)])
    def test_oracle_scores(self, dim, temperature):
        scenario = Scenario(ring_config(K, feature_dim=dim, temperature=temperature))
        rng = np.random.default_rng(4)
        x = scenario.components.sample(rng.integers(0, K + 1, N), rng)
        peak = _transient_peak(lambda: scenario.oracle_scores(x))
        assert peak <= BOUND + MATRIX_BYTES


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


# Sampling, restated as it stood before it worked in place.

def _old_log_pdf(components, x):
    """The (N, K+1, d) branch of ``log_pdf``, which numpy sums pairwise from d = 8."""
    d = components.dim
    diff = x[:, None, :] - components.means[None, :, :]
    sq = np.sum(diff * diff, axis=2)
    sq *= -0.5
    sq /= (components.scales**2)[None, :]
    sq -= d * np.log(components.scales)[None, :]
    sq -= 0.5 * d * np.log(2.0 * np.pi)
    return sq


def _old_oracle_scores(scenario, x):
    cfg = scenario.config
    joint = scenario.components.log_pdf(x)
    joint += np.concatenate(
        [np.log(cfg.rho_s) + np.log(cfg.c.entries), [np.log(1.0 - cfg.rho_s)]]
    )[None, :]
    joint_id = joint[:, : cfg.k]
    m = joint_id.max(axis=1, keepdims=True)
    tau = cfg.temperature
    shifted = joint_id - m
    ef = np.exp(shifted)
    total = ef.sum(axis=1)
    lse_id = m[:, 0] + np.log(total)
    if tau != 1.0:
        ef = np.exp(shifted / tau)
        total = ef.sum(axis=1)
    ef /= total[:, None]
    h = simulate._sigmoid((lse_id - joint[:, cfg.k]) / tau)
    return ef, h


class TestSamplingMatchesOldExpressions:
    @pytest.mark.parametrize("dim", [8, 9, 16])
    @pytest.mark.parametrize("block_rows", [None, 4])
    def test_log_pdf(self, dim, block_rows, monkeypatch):
        # Blocks of 4 rows leave one row over at n = 257.
        rng = np.random.default_rng(dim)
        k = 7
        if block_rows is not None:
            monkeypatch.setattr(simulate, "_LOG_PDF_CELLS", block_rows * (k + 1) * dim)
        components = GaussianComponents(rng.normal(0.0, 3.0, (k + 1, dim)),
                                        rng.uniform(0.5, 2.0, k + 1))
        x = rng.normal(0.0, 3.0, (257, dim))
        _same(components.log_pdf(x), _old_log_pdf(components, x))
        _same(components.log_pdf(x[::-2]), _old_log_pdf(components, x[::-2]))

    @pytest.mark.parametrize("dim", [2, 9, 16])
    @pytest.mark.parametrize("temperature", [0.6, 1.0, 1.7, 3.0])
    @pytest.mark.parametrize("k", [2, 10, 100])
    def test_oracle_scores(self, k, temperature, dim):
        scenario = Scenario(ring_config(k, feature_dim=dim, temperature=temperature, seed=k))
        rng = np.random.default_rng(dim)
        x = scenario.components.sample(rng.integers(0, k + 1, 513), rng)
        f, h = scenario.oracle_scores(x)
        old_f, old_h = _old_oracle_scores(scenario, x)
        _same(f, old_f)
        _same(h, old_h)
