"""Memory of the read, estimate, correct, sampling and simulate paths, and the bits they make.

Each estimate or correct call builds its one N x (K+1) (or N x K) matrix in a
fresh array and then works on it in place. ``TestTransientPeak`` pins that with
tracemalloc: beyond its inputs, a call allocates at most 1.25 times one
N x (K+1) float64 matrix. Sampling scores a block of rows at a time into the
N x K posteriors it returns, and the records adopt them, so it holds a few MiB
beyond what it returns, at any N; BBSE's argmax, ``RecordSet``'s checks and
``RecordSet.with_h`` also work in blocks of rows or on ``h`` alone. A table
reader holds one copy of the arrays it returns, plus a few blocks of rows.
``TestBuildersMatchOldExpressions`` and ``TestSamplingMatchesOldExpressions``
restate the out-of-place expressions the builders replaced and assert the same
bytes, so every output stays as it was, and ``test_simulate_files_match_sampling_first``
does the same for ``osls simulate``'s order of sampling and writing.
"""

import gc
import os
import tracemalloc

import numpy as np
import pytest

from osls import baselines as bl
from osls import core
from osls import em
from osls import io as osls_io
from osls import pool as osls_pool
from osls import simulate
from osls.cli import main
from osls.core import RecordSet, SourceLabelModel, extend_distribution
from osls.em import EmConfig
from osls.pipeline import correct_records, estimate
from osls.simulate import GaussianComponents, Scenario, ring_config

from conftest import feed_fifo, join_fifo

N, K = 20_000, 50
MATRIX_BYTES = N * (K + 1) * 8
BOUND = 1.25 * MATRIX_BYTES
# What sampling and BBSE may hold beyond the arrays they return: their blocks of rows.
SAMPLING_SLACK = 3 << 20


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


READ_N, READ_K, READ_BLOCK_ROWS = 40_000, 10, 256
# Ranges of a table read from a stream: large enough that the text of a few
# ranges outweighs a quarter of the arrays read.
STREAM_BLOCK_ROWS = 2048


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """A directory of one prediction, corrected and feature table, each READ_N rows."""
    rng = np.random.default_rng(6)
    out = tmp_path_factory.mktemp("tables")
    records = _records(rng, READ_N, READ_K, labels=True)
    osls_io.write_records(out / "records.jsonl", records)
    osls_io.write_corrected(out / "corrected.jsonl", records.extended_f(), records.y, records.y)
    osls_io.write_features(out / "features.csv", rng.normal(size=(READ_N, READ_K)))
    return out


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

    @pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pool"])
    @pytest.mark.parametrize("read, name", [
        (osls_io.read_records, "records.jsonl"),
        (osls_io.read_corrected, "corrected.jsonl"),
        (osls_io.read_features, "features.csv"),
    ], ids=["read_records", "read_corrected", "read_features"])
    def test_reader(self, request, monkeypatch, tables, read, name, pooled):
        # One copy of the returned arrays, plus a few blocks of rows and their
        # text: small blocks here, so that a block is small next to the table.
        monkeypatch.setattr(osls_io, "BLOCK_ROWS", READ_BLOCK_ROWS)
        if pooled:
            pools = request.getfixturevalue("pools")
        else:
            monkeypatch.setattr(osls_pool, "_pool", lambda workers: None)
        read(tables / name)  # start the pool outside the trace
        returned = []
        peak = _transient_peak(lambda: returned.append(read(tables / name)))
        if pooled:
            assert pools and all(pools)
        table = returned[0]
        if isinstance(table, RecordSet):
            table = {"f": table.f, "h": table.h, "y": table.y}
        arrays = table.values() if isinstance(table, dict) else [table]
        nbytes = sum(col.nbytes for col in arrays)
        assert peak <= 1.25 * nbytes + 2 * READ_BLOCK_ROWS * nbytes / READ_N

    def test_stream_reader(self, monkeypatch, tmp_path, tables):
        # A stream is read in this process a range at a time, its columns grown
        # by a quarter at a time. Beyond the same file read in this process, it
        # holds at most the range being converted and the columns' growth step.
        monkeypatch.setattr(osls_io, "BLOCK_ROWS", STREAM_BLOCK_ROWS)
        monkeypatch.setattr(osls_pool, "_pool", lambda workers: None)
        path, fifo = tables / "records.jsonl", tmp_path / "records.jsonl"
        returned = []
        file_peak = _transient_peak(lambda: returned.append(osls_io.read_records(path)))
        os.mkfifo(fifo)
        writer = feed_fifo(fifo, path)
        try:
            fifo_peak = _transient_peak(lambda: returned.append(osls_io.read_records(fifo)))
        finally:
            join_fifo(fifo, writer)
        nbytes = sum(col.nbytes for col in (returned[0].f, returned[0].h, returned[0].y))
        lines = path.read_bytes().splitlines(keepends=True)
        range_bytes = max(sum(map(len, lines[i : i + STREAM_BLOCK_ROWS]))
                          for i in range(0, len(lines), STREAM_BLOCK_ROWS))
        assert fifo_peak - nbytes <= file_peak - nbytes + range_bytes + nbytes / 4

    @pytest.mark.parametrize("dim, temperature", [(2, 1.0), (2, 1.7), (9, 1.0)])
    def test_oracle_scores(self, dim, temperature):
        scenario = Scenario(ring_config(K, feature_dim=dim, temperature=temperature))
        rng = np.random.default_rng(4)
        x = scenario.components.sample(rng.integers(0, K + 1, N), rng)
        peak = _transient_peak(lambda: scenario.oracle_scores(x))
        assert peak <= N * K * 8 + N * 8 + SAMPLING_SLACK

    def test_pseudo_ood_scores(self):
        # h alone: the posteriors are scored into one block's buffer.
        scenario = Scenario(ring_config(K))
        x = np.random.default_rng(4).normal(size=(N, 2))
        peak = _transient_peak(lambda: scenario.pseudo_ood_scores(x, 0.3))
        assert peak <= 3 * x.nbytes + N * 8 + SAMPLING_SLACK

    @pytest.mark.parametrize("n", [20_000, 80_000])
    def test_sample_source(self, n):
        # The excess over the returned arrays does not grow with N.
        scenario = Scenario(ring_config(K, n_source=n, seed=3))
        returned = []
        peak = _transient_peak(lambda: returned.append(scenario.sample_source()))
        source = returned[0]
        nbytes = sum(a.nbytes for a in (source.records.f, source.records.h,
                                        source.records.y, source.features))
        assert peak <= nbytes + SAMPLING_SLACK

    def test_bbse_argmax(self, data):
        source, target, _, _ = data
        peak = _transient_peak(lambda: (bl.argmax_labels(source.f),
                                        bl.predicted_class_frequencies(target.f)))
        assert peak <= 2 * N * 8 + SAMPLING_SLACK

    def test_bbse_argmax_of_record_sets(self, data):
        # Their rows were checked when they were built, and are still taken a
        # block at a time: np.argmax over the whole matrix holds a copy of it.
        source, target, _, _ = data
        peak = _transient_peak(lambda: (bl.argmax_labels(source),
                                        bl.predicted_class_frequencies(target)))
        assert peak <= 2 * N * 8 + SAMPLING_SLACK


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

    def test_recordset_adopt(self, k, layout):
        # The readers' private constructor works in the arrays it is given, to
        # the public constructor's bits.
        f, h = _inputs(k, layout)
        y = np.arange(f.shape[0]) % (k + 1) + 1
        ref = RecordSet(f, h, y)
        fresh_f, fresh_h = f.copy(order="K"), h.copy()
        rs = RecordSet._adopt(fresh_f, fresh_h, y.astype(np.int64))
        for new, old in ((rs.f, ref.f), (rs.h, ref.h), (rs.y, ref.y)):
            _same(new, old)
        assert rs.f is fresh_f and rs.h is fresh_h and not rs.f.flags.writeable

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
            monkeypatch.setattr(core, "BLOCK_CELLS", block * k)
        f, _ = _inputs(k, layout)
        old = np.ascontiguousarray(_old_normalized(f))
        in_place = f.copy(order="K")
        assert core.normalized_rows(in_place, "f", out=in_place) is in_place
        _same(in_place, old)
        _same(core.normalized_rows(f, "f"), old)
        c = np.random.default_rng(2).dirichlet(np.full(k, 5.0))
        w = core.normalized_rows(f, "f", out=np.empty(f.shape, order="F"))
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
    _same(core.normalized_rows(f, "f"), np.ascontiguousarray(_old_normalized(f)))


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
            monkeypatch.setattr(simulate, "BLOCK_CELLS", block_rows * (k + 1) * dim)
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

    @pytest.mark.parametrize("dim", [2, 9])
    @pytest.mark.parametrize("temperature", [0.6, 1.0, 1.7])
    @pytest.mark.parametrize("k", [2, 10, 100])
    def test_oracle_scores_in_blocks(self, k, temperature, dim, monkeypatch):
        # Blocks of 4 rows leave one row over at n = 513; the pseudo-OOD scores
        # reuse one block's buffer for f.
        monkeypatch.setattr(simulate, "BLOCK_CELLS", 4 * (k + 1))
        self.test_oracle_scores(k, temperature, dim)
        scenario = Scenario(ring_config(k, feature_dim=dim, temperature=temperature, seed=k))
        x = np.random.default_rng(dim).normal(0.0, 3.0, (513, dim))
        blended = simulate.gen_pseudo_ood(x, 0.3, [k, simulate._STREAM_PSEUDO_NOISE])
        _same(scenario.pseudo_ood_scores(x, 0.3), _old_oracle_scores(scenario, blended)[1])

    @pytest.mark.parametrize("block", [None, 4])
    @pytest.mark.parametrize("k, dim, temperature", [(10, 2, 1.0), (100, 2, 1.0),
                                                     (10, 9, 1.7), (3, 2, 0.6)])
    def test_sample_source(self, k, dim, temperature, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(simulate, "BLOCK_CELLS", block * (k + 1))
        config = ring_config(k, feature_dim=dim, temperature=temperature, n_source=2001,
                             seed=k + dim)
        new = Scenario(config).sample_source()
        # As sampled before: the whole array's scores, then the copying constructors.
        scenario = Scenario(config)
        labels0 = simulate._stream(config.seed, simulate._STREAM_SOURCE_LABELS).choice(
            k, size=config.n_source, p=config.c.entries)
        rng = simulate._stream(config.seed, simulate._STREAM_SOURCE_FEATURES)
        x = scenario.components.sample(labels0, rng)
        old = simulate.LabeledDataset(RecordSet(*_old_oracle_scores(scenario, x), labels0 + 1), x)
        for a, b in ((new.records.f, old.records.f), (new.records.h, old.records.h),
                     (new.records.y, old.records.y), (new.features, old.features)):
            _same(a, b)
            assert not a.flags.writeable


def test_simulate_files_match_sampling_first(tmp_path):
    """``osls simulate`` writes each dataset as soon as it samples it; its files are
    those written after sampling all three first, as it once did."""
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("k = 4\nn_source = 3000\nn_target = 2500\nn_ood_ref = 1200\nr = 0.7\n"
                   "shift = lt:10\nseed = 11\ntemperature = 1.3\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "new")]) == 0
    config = osls_io.scenario_from_kv(osls_io.parse_kv_file(cfg))
    scenario = Scenario(config)
    source = scenario.sample_source()
    target = scenario.sample_target_exact_ratio()
    ood_ref = scenario.sample_ood_ref()
    old = tmp_path / "old"
    old.mkdir()
    osls_io.write_records(old / "source.jsonl", source.records)
    osls_io.write_records(old / "target.jsonl", target.records)
    osls_io.write_records(old / "ood_ref.jsonl", ood_ref.records)
    osls_io.write_features(old / "source_features.csv", source.features)
    truth = scenario.truth
    osls_io.write_truth(old / "truth.json", config.c, config.rho_s, truth.pi, truth.rho_t)
    osls_io.write_json(old / "scenario.json", osls_io.scenario_to_dict(config))
    names = sorted(p.name for p in old.iterdir())
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == names
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (old / name).read_bytes(), name
