import gc
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osls import baselines as bl
from osls import em
from osls.core import (
    DegenerateSample,
    ProbabilityVector,
    RecordSet,
    SourceLabelModel,
    TargetLabelModel,
    ValidationError,
    extend_distribution,
    normalized_rows,
)
from osls.em import (
    EmConfig,
    closed_form_rho_t,
    nll_grid_argmin,
    osls_nll,
    run_em,
)
from osls.estimators import threshold_rescale
from osls.pipeline import estimate, run_sweep, source_class_frequencies
from osls.simulate import ShiftSpec, make_scenario, ring_config

from conftest import easy_config, mle_em_path, overlap_config, plain_em
from test_acceptance import _random_k2_scenario


def _direct_nll(pi, rho_t, c, rho_s, f, h):
    """Independent scalar evaluation of the likelihood in its pre-reparameterized
    form: -sum log( (rho_t/rho_s) h_i sum_j (pi_j/c_j) f_ij
                    + ((1-rho_t)/(1-rho_s)) (1-h_i) )."""
    total = 0.0
    for fi, hi in zip(f, h):
        inner = (rho_t / rho_s) * hi * float(np.sum(np.asarray(pi) / np.asarray(c) * fi))
        inner += (1.0 - rho_t) / (1.0 - rho_s) * (1.0 - hi)
        total -= np.log(inner)
    return total


class TestOslsNll:
    def test_single_class_cancellation(self):
        source = SourceLabelModel(ProbabilityVector([1.0]), 0.5)
        target = RecordSet([[1.0]], [0.5])
        assert osls_nll([1.0], 0.5, source, target) == pytest.approx(0.0, abs=1e-12)

    def test_identity_reweighting_is_zero(self):
        source = SourceLabelModel(ProbabilityVector([0.3, 0.7]), 0.6)
        target = RecordSet([[0.2, 0.8], [0.5, 0.5]], [0.9, 0.1])
        assert osls_nll(source.c, source.rho_s, source, target) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        source = SourceLabelModel(ProbabilityVector([0.5, 0.5]), 0.5)
        target = RecordSet([[0.5, 0.5]], [1.0])
        got = osls_nll([1.0, 0.0], 1.0, source, target)
        assert got == pytest.approx(-np.log(2.0), abs=1e-12)
        direct = _direct_nll([1.0, 0.0], 1.0, [0.5, 0.5], 0.5,
                             [np.array([0.5, 0.5])], [1.0])
        assert got == pytest.approx(direct, abs=1e-12)

    def test_matches_direct_form(self, rng):
        k = 3
        c = rng.dirichlet(np.ones(k))
        c = 0.9 * c + 0.1 / k  # keep entries comfortably positive
        source = SourceLabelModel(ProbabilityVector(c / c.sum()), 0.65)
        f = rng.dirichlet(np.ones(k), size=40)
        h = rng.random(40)
        target = RecordSet(f, h)
        pi = rng.dirichlet(np.ones(k))
        got = osls_nll(pi, 0.3, source, target)
        want = _direct_nll(pi, 0.3, source.c.entries, source.rho_s, target.f, target.h)
        assert got == pytest.approx(want, rel=1e-10)


ONE_UPDATE = EmConfig(max_iters=1, tol=0.0)


def _one_update(pi, rho_t, source, target):
    """One plain E+M update of (pi, rho_t) through run_em, which validates the start."""
    trace = run_em(source, target, ONE_UPDATE, init=TargetLabelModel(pi, rho_t))
    return trace.pi_final, trace.rho_t_final


def _m_step(col_sums, n, alpha_in=None, alpha_out=(1.0, 1.0)):
    """The open-set M-step from K+1 column sums and the prior parameters."""
    k = col_sums.size - 1
    am1 = (np.ones(k) if alpha_in is None else np.asarray(alpha_in, dtype=float)) - 1.0
    return em.open_m_step(col_sums, float(n), am1, (alpha_out[0] - 1.0, alpha_out[1] - 1.0))


class TestEmStep:
    def test_certain_id_sample(self):
        source = SourceLabelModel(ProbabilityVector([1.0]), 0.5)
        target = RecordSet([[1.0]], [1.0])
        pi, rho = _one_update([1.0], 0.5, source, target)
        np.testing.assert_allclose(pi.entries, [1.0])
        assert rho == pytest.approx(1.0)

    def test_balanced_certain_samples(self):
        source = SourceLabelModel(ProbabilityVector([1.0]), 0.5)
        target = RecordSet([[1.0], [1.0]], [1.0, 0.0])
        pi, rho = _one_update([1.0], 0.5, source, target)
        np.testing.assert_allclose(pi.entries, [1.0])
        assert rho == pytest.approx(0.5)

    def test_m_step_direct_substitution(self):
        pi, rho = _m_step(np.array([3.0, 1.0, 1.0]), 5,
                          alpha_in=np.array([2.0, 2.0]), alpha_out=(1.0, 1.0))
        np.testing.assert_allclose(pi, [4 / 6, 2 / 6])
        assert rho == pytest.approx(0.8)

    def test_m_step_prior_mode(self):
        # zero-data limit: the update lands on the prior mode
        pi, rho = _m_step(np.zeros(3), 0,
                          alpha_in=np.array([2.0, 2.0]), alpha_out=(2.0, 2.0))
        np.testing.assert_allclose(pi, [0.5, 0.5])
        assert rho == pytest.approx(0.5)

    def test_m_step_all_mass_ood(self):
        pi, rho = _m_step(np.array([0.0, 0.0, 5.0]), 5)
        assert pi is None
        assert rho == pytest.approx(0.0)

    def test_validates_inputs(self):
        source = SourceLabelModel(ProbabilityVector([0.5, 0.5]), 0.5)
        target = RecordSet([[0.5, 0.5]], [0.5])
        with pytest.raises(ValidationError):
            _one_update([1.0, 0.0], 0.5, source, target)
        with pytest.raises(ValidationError):
            _one_update([0.5, 0.5], 1.0, source, target)
        with pytest.raises(ValidationError):  # not a probability vector
            _one_update([0.5, 0.9], 0.5, source, RecordSet([[0.7, 0.3], [0.2, 0.8]], [0.9, 0.4]))


class TestEStepKernel:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 12))
    def test_matvec_equals_responsibility_column_sums(self, seed, n, k):
        rng = np.random.default_rng(seed)
        w = rng.uniform(1e-3, 5.0, size=(n, k))
        x = rng.uniform(1e-3, 1.0, size=k)
        d = w @ x
        resp = np.empty((n, k))
        for i in range(n):
            row = x * w[i]
            resp[i] = row / row.sum()
        want = resp.sum(axis=0)
        np.testing.assert_allclose(x * em.e_step(w, d), want, rtol=1e-12, atol=0.0)


class TestRunEm:
    def test_no_shift_consistency(self):
        # target sampled exactly from the source model: r chosen so rho_t = rho_s
        cfg = easy_config(k=2, seed=5, n=10_000, r=0.4 / 0.6, rho_s=0.6)
        _, target, _, truth = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        trace = run_em(source, target.records)
        assert float(np.max(np.abs(trace.pi_final.entries - cfg.c.entries))) < 0.05
        assert abs(trace.rho_t_final - cfg.rho_s) < 0.05

    def test_single_certain_sample_one_step(self):
        source = SourceLabelModel(ProbabilityVector([1.0]), 0.5)
        target = RecordSet([[1.0]], [1.0])
        trace = run_em(source, target, EmConfig(max_iters=1))
        np.testing.assert_allclose(trace.pi_final.entries, [1.0])
        assert trace.rho_t_final == pytest.approx(1.0)

    def test_prior_mode_zero_data_kernel(self):
        # zero-weight emulation via the EM loop with an empty target block
        w = np.zeros((0, 3))
        out = em.fit(w, np.array([0.5, 0.5]), 0.5,
                     EmConfig(5, 0.0, alpha_in=np.array([2.0, 2.0]), alpha_out=(2.0, 2.0)))
        np.testing.assert_allclose(out.pi_final.entries, [0.5, 0.5])
        assert out.rho_t_final == pytest.approx(0.5)

    def test_monotone_nll(self):
        cfg = overlap_config(k=3, seed=2, n=2000, shift=ShiftSpec.dirichlet(1.0))
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        for config in (EmConfig(), EmConfig(alpha_in=np.full(3, 2.0), alpha_out=(2.0, 2.0))):
            trace = run_em(source, target.records, config)
            assert np.all(np.diff(trace.nll_per_iter) <= 1e-9)

    def test_monotone_nll_plain(self):
        cfg = overlap_config(k=3, seed=2, n=2000, shift=ShiftSpec.dirichlet(1.0))
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        for alpha in (None, np.full(3, 2.0)):
            trace = run_em(source, target.records, EmConfig(tol=0.0, alpha_in=alpha))
            assert trace.iterations_run == 100
            assert np.all(np.diff(trace.nll_per_iter) <= 1e-9)

    def test_extended_iterate_stays_on_simplex(self):
        cfg = overlap_config(k=3, seed=9, n=500)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        pi, rho = source.c, source.rho_s
        for _ in range(20):
            ext = extend_distribution(pi, rho)
            assert abs(ext.entries.sum() - 1.0) <= 1e-9
            pi, rho = _one_update(pi, rho, source, target.records)

    def test_mle_map_bitwise_degeneracy(self):
        cfg = overlap_config(k=4, seed=3, n=1000, shift=ShiftSpec.dirichlet(1.0))
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        w = target.records.extended_f() / source.extended().entries
        pi0 = source.c.entries
        mle = mle_em_path(w, pi0, source.rho_s, 50)
        mapped = em.fit(w, pi0, source.rho_s, EmConfig(50, 0.0))
        # pi bitwise, both as the ProbabilityVector every fit returns
        assert np.array_equal(ProbabilityVector(mle[0]).entries, mapped.pi_final.entries)
        assert mle[1] == mapped.rho_t_final  # rho bitwise
        assert np.array_equal(mle[2][:51], mapped.nll_per_iter[:51])  # objective trace bitwise

    def test_fortran_order_matches_c_order(self):
        # W is built column-major for speed; the layout changes only BLAS summation order
        cfg = easy_config(k=10, seed=4, n=20_000, separation=4.0, shift=ShiftSpec.dirichlet(1.0))
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        open_w = target.records.extended_f() / source.extended().entries
        closed_w = target.records.f / source.c.entries
        for w, rho0 in ((open_w, source.rho_s), (closed_w, None)):
            for alpha in (1.0, 2.0):
                config = EmConfig(500, 1e-8, alpha_in=np.full(10, alpha))
                c_fit, f_fit = (
                    em.fit(layout(w), source.c.entries, rho0, config)
                    for layout in (np.ascontiguousarray, np.asfortranarray)
                )
                np.testing.assert_allclose(f_fit.pi_final.entries, c_fit.pi_final.entries,
                                           rtol=0, atol=1e-13)
                if rho0 is not None:
                    assert abs(f_fit.rho_t_final - c_fit.rho_t_final) <= 1e-13
                scale = np.abs(c_fit.nll_per_iter).max()
                np.testing.assert_allclose(f_fit.nll_per_iter, c_fit.nll_per_iter,
                                           rtol=0, atol=1e-13 * scale)
                assert c_fit.converged and f_fit.converged  # same updates to tol
                assert f_fit.iterations_run == c_fit.iterations_run

    def test_early_stop(self):
        cfg = easy_config(k=2, seed=1, n=500)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        trace = run_em(source, target.records, EmConfig(max_iters=100, tol=1e-8))
        assert trace.converged
        assert trace.iterations_run < 100
        assert trace.nll_per_iter.size == trace.iterations_run + 1

    def test_degenerate_sample_index(self):
        # adversarial iterate with an exact zero: reachable only past validation,
        # so drive the fit directly and check the reported sample index
        fe = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        ce = np.array([0.35, 0.35, 0.3])
        pi0 = np.array([1.0, 0.0])
        with pytest.raises(DegenerateSample) as info:
            em.fit(fe / ce, pi0, 1.0, EmConfig(10, 0.0))
        err = info.value
        assert err.index == 0 and "0" in str(err)  # first sample has zero posterior mass

    @pytest.mark.parametrize("n", [50, 200])
    def test_target_with_no_id_score(self, n):
        # Every target row has h = 0, so the ID classes get no responsibility
        # mass, and rounding leaves n - s[K] a few ulp from 0 on either side.
        rng = np.random.default_rng(n)
        target = RecordSet(rng.dirichlet(np.ones(3), n), np.zeros(n))
        source = SourceLabelModel([0.2, 0.3, 0.5], 0.7)
        for tol in (EmConfig.tol, 0.0):
            mle = run_em(source, target, EmConfig(tol=tol))
            assert mle.rho_t_final == 0.0 and mle.pi_update_frozen
            assert np.array_equal(mle.pi_final.entries, source.c.entries)
            assert mle.converged == (tol > 0.0)
            prior = run_em(source, target, EmConfig(tol=tol, alpha_in=np.full(3, 2.0)))
            assert prior.rho_t_final == 0.0 and not prior.pi_update_frozen
            np.testing.assert_allclose(prior.pi_final.entries, 1.0 / 3.0)
            # The prior is finite at rho = 0 (alpha_out[0] is 1), and so is the certificate.
            assert prior.converged == (tol > 0.0) and math.isfinite(prior.certificate)
            assert prior.map_evaluations == (1 if tol > 0.0 else EmConfig.max_iters)

    def test_init_validation(self):
        cfg = easy_config(k=2, seed=1, n=100)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        bad = TargetLabelModel(ProbabilityVector([1.0, 0.0]), 0.5)
        with pytest.raises(ValidationError):
            run_em(source, target.records, init=bad)


def _fit_cases(cfg):
    """Open-set and closed-set (W, pi0, rho0, alpha, alpha_out) of one scenario, MLE and MAP."""
    _, target, _, _ = make_scenario(cfg)
    source = SourceLabelModel(cfg.c, cfg.rho_s)
    k = cfg.k
    open_w = target.records.extended_f() / source.extended().entries
    closed_w = target.records.f / source.c.entries
    for w, rho0 in ((open_w, source.rho_s), (closed_w, None)):
        for a in (1.0, 2.0):
            alpha_out = (a, a) if rho0 is not None else (1.0, 1.0)
            yield w, source.c.entries, rho0, np.full(k, a), alpha_out


def _fit(w, pi0, rho0, alpha, alpha_out, config):
    """em.fit on one _fit_cases input, with its priors and config's stopping rule."""
    return em.fit(w, pi0, rho0, EmConfig(config.max_iters, config.tol,
                                         alpha_in=alpha, alpha_out=alpha_out))


class TestSquarem:
    """The accelerated loop that runs whenever tol > 0."""

    DEFAULT = EmConfig()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_plain_em_to_tight_tol(self, seed):
        # Ordered long-tailed targets keep every class share >= 1/10 of the largest, so
        # each optimum is interior; at a boundary optimum a stop on the step size does
        # not bound the objective gap to 1e-12.
        maps = plain_updates = 0
        for k in (2, 10):
            cfg = easy_config(k=k, seed=seed, n=2000, separation=4.0,
                              shift=ShiftSpec.ordered_lt(10), r=[1.0, 0.5, 2.0][seed % 3])
            for args in _fit_cases(cfg):
                fit = _fit(*args, self.DEFAULT)
                assert fit.converged, "the default fit did not converge"
                ref = plain_em(*args, 1e-13, 100_000)
                assert ref[4]
                assert np.max(np.abs(fit.pi_final.entries - ref[0])) <= 1e-7
                if args[2] is not None:
                    assert abs(fit.rho_t_final - ref[1]) <= 1e-7
                assert fit.nll_per_iter[-1] <= ref[2] + 1e-12 * abs(ref[2])
                maps += fit.map_evaluations
                plain_updates += plain_em(*args, self.DEFAULT.tol, 100_000)[3]
        assert maps < 0.6 * plain_updates  # extrapolation saves maps over plain EM

    def test_rejected_extrapolation_keeps_trace_non_increasing(self, monkeypatch):
        # Newton steps now finish these fits before rounding can reject an
        # extrapolation, so every extrapolation here goes halfway to the vertex
        # of the smallest mixing weight instead, which raises the objective.
        def far(x0, x1, x2, open_set):
            vertex = np.zeros(x2.size)
            vertex[np.argmin(x2)] = 1.0
            return em._from_mixing(0.5 * (x2 + vertex), open_set)

        declined = []
        step = em._Newton.step
        monkeypatch.setattr(em, "_extrapolate", far)
        monkeypatch.setattr(em._Newton, "step",
                            lambda *args: declined.append(step(*args)) or declined[-1])
        cfg = overlap_config(k=10, seed=0, n=3000, shift=ShiftSpec.ordered_lt(10))
        for args in _fit_cases(cfg):
            declined.clear()
            fit = _fit(*args, EmConfig(100, 1e-10))
            # stabilising maps whose point was not kept
            rejected = (fit.map_evaluations + fit.newton_steps - fit.iterations_run
                        - sum(point is None for point in declined))
            assert rejected > 0
            assert fit.map_evaluations + fit.newton_steps <= 100
            assert fit.iterations_run == fit.nll_per_iter.size - 1
            assert np.all(np.diff(fit.nll_per_iter) <= 1e-9)

    @pytest.mark.parametrize("max_iters", [1, 2, 3, 4, 5, 7, 10, 31])
    def test_map_evaluations_within_cap(self, max_iters):
        for cfg in (overlap_config(k=10, seed=0, n=3000, shift=ShiftSpec.ordered_lt(10)),
                    easy_config(k=3, seed=1, n=500)):
            source = SourceLabelModel(cfg.c, cfg.rho_s)
            _, target, _, _ = make_scenario(cfg)
            for alpha in (None, np.full(cfg.k, 2.0)):
                config = EmConfig(max_iters=max_iters, alpha_in=alpha)
                trace = run_em(source, target.records, config)
                assert 1 <= trace.map_evaluations + trace.newton_steps <= max_iters
                assert trace.iterations_run == trace.nll_per_iter.size - 1
                assert trace.iterations_run <= trace.map_evaluations + trace.newton_steps
                if max_iters == 1:  # no room to extrapolate: one plain update
                    plain = run_em(source, target.records,
                                   EmConfig(max_iters=1, tol=0.0, alpha_in=alpha))
                    assert np.array_equal(trace.pi_final.entries, plain.pi_final.entries)
                    assert trace.rho_t_final == plain.rho_t_final

    def test_default_converges_under_cap(self):
        # K=10, radius 4: plain EM needs more than 100 updates to reach tol 1e-10 here
        cfg = ring_config(10, radius=4.0, rho_s=0.7, n_source=10_000, n_target=10_000,
                          n_ood_ref=5000, shift=ShiftSpec.dirichlet(1.0), r=0.1, seed=0)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        trace = run_em(source, target.records)
        assert trace.converged
        assert trace.map_evaluations < 100

    def test_zero_tol_runs_every_update(self):
        cfg = easy_config(k=3, seed=1, n=500)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        trace = run_em(source, target.records, EmConfig(max_iters=37, tol=0.0))
        assert not trace.converged
        assert trace.iterations_run == trace.map_evaluations == 37


class TestClosedFormRhoT:
    def test_counts(self):
        target = RecordSet(np.ones((100, 1)), np.r_[np.ones(30), np.zeros(70)])
        assert closed_form_rho_t(target) == pytest.approx(0.3)

    def test_all_ones(self):
        target = RecordSet(np.ones((10, 1)), np.ones(10))
        assert closed_form_rho_t(target) == 1.0

    def test_rejects_soft_scores(self):
        target = RecordSet(np.ones((2, 1)), np.array([1.0, 0.5]))
        with pytest.raises(ValidationError):
            closed_form_rho_t(target)

    def test_binary_scorer_reduction(self):
        # binarized oracle, no ID shift: EM lands exactly on the score mean
        cfg = easy_config(k=3, seed=21, n=5000, r=0.6)
        source_ds, target, ood_ref, _ = make_scenario(cfg)
        h_bin = threshold_rescale(target.records.h, source_ds.records.h, ood_ref.records.h)
        binary_target = target.records.with_h(h_bin)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        trace = run_em(source, binary_target)
        assert abs(trace.rho_t_final - closed_form_rho_t(binary_target)) < 1e-6


def _full_grid_surface(fe, ce, n_side):
    """NLL over every cell of the n_side x n_side (pi_1, rho_t) grid, K = 2."""
    a = fe[:, 0] / ce[0]
    b = fe[:, 1] / ce[1]
    dd = fe[:, 2] / ce[2]
    grid = np.linspace(0.0, 1.0, n_side)
    out = np.empty((n_side, n_side))
    for i, p1 in enumerate(grid):
        u = p1 * a + (1.0 - p1) * b
        inner = grid[:, None] * u[None, :] + (1.0 - grid)[:, None] * dd[None, :]
        out[i, :] = -np.sum(np.log(np.maximum(inner, 1e-300)), axis=1)
    return out


def _k2_target(shape, n=60):
    """(source, target) whose grid argmin sits where ``shape`` says, K = 2.

    "h_ends" has some h exactly 0 and 1; "certain_sample" adds one sample with
    h = 1 and f = (1, 0), whose D is 0 on row pi_1 = 0; "row_0" and
    "row_last" favour class 2 and class 1 in every sample; "column_t1" has
    every h = 1 and "vertex_t0" every h = 0.
    """
    rng = np.random.default_rng(17)
    source = SourceLabelModel(ProbabilityVector([0.4, 0.6]), 0.7)
    f = rng.dirichlet([1.0, 1.0], n)
    h = rng.uniform(0.0, 1.0, n)
    if shape in ("h_ends", "certain_sample"):
        h[: n // 10], h[n // 10 : n // 5] = 0.0, 1.0
    if shape == "certain_sample":
        f[n // 2], h[n // 2] = (1.0, 0.0), 1.0
    if shape in ("row_0", "row_last"):
        f[:, 0] = rng.uniform(0.02, 0.2, n)
        f[:, 1] = 1.0 - f[:, 0]
        h = rng.uniform(0.2, 0.8, n)
        if shape == "row_last":
            f = f[:, ::-1].copy()
    if shape == "column_t1":
        h[:] = 1.0
    if shape == "vertex_t0":
        h[:] = 0.0
    return source, RecordSet(f, h)


class TestGridOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_bisection_matches_full_scan(self, seed):
        rng = np.random.default_rng(seed)
        cfg = ring_config(2, radius=float(rng.uniform(1.5, 4.0)), scale=1.0,
                          rho_s=float(rng.uniform(0.3, 0.9)), n_source=500,
                          n_target=int(rng.integers(20, 400)), n_ood_ref=500,
                          shift=ShiftSpec.dirichlet(1.0),
                          r=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
                          seed=seed)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        surface = _full_grid_surface(target.records.extended_f(), source.extended().entries,
                                     101)
        i, j = divmod(int(np.argmin(surface)), 101)
        p1, rho, value = nll_grid_argmin(source, target.records, resolution=0.01)
        assert (p1, rho) == (i * (1.0 / 100), j * (1.0 / 100))
        assert value == surface[i, j]

    @pytest.mark.parametrize("n, cells", [
        (20, None),  # 819 rows per block: 1001 = 819 + 182
        (301, None),  # 54 rows per block, the last block 29 rows
        (301, 2 * 301 + 1),  # one row per block, as for N > _GRID_CELLS_PER_BLOCK / 4
    ])
    def test_fine_grid_matches_full_scan(self, n, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(em, "_GRID_CELLS_PER_BLOCK", cells)
        rows = max(1, em._GRID_CELLS_PER_BLOCK // (2 * n))
        assert rows == 1 or 1001 % rows
        cfg = ring_config(2, radius=2.5, scale=1.0, rho_s=0.6, n_source=500, n_target=n,
                          n_ood_ref=500, shift=ShiftSpec.dirichlet(1.0), r=0.8, seed=n)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        surface = _full_grid_surface(target.records.extended_f(), source.extended().entries,
                                     1001)
        i, j = divmod(int(np.argmin(surface)), 1001)
        p1, rho, value = nll_grid_argmin(source, target.records, resolution=0.001)
        assert (p1, rho) == (i * (1.0 / 1000), j * (1.0 / 1000))
        assert value == surface[i, j]

    @pytest.mark.parametrize("resolution", [0.01, 0.001])
    @pytest.mark.parametrize("shape", ["h_ends", "certain_sample", "row_0", "row_last",
                                       "column_t1", "vertex_t0"])
    def test_edge_targets_match_full_scan(self, shape, resolution, monkeypatch):
        pruned = []
        prune = em._K2Grid.pruned_argmin
        monkeypatch.setattr(em._K2Grid, "pruned_argmin",
                            lambda grid: pruned.append(prune(grid)) or pruned[-1])
        source, target = _k2_target(shape)
        n_side = int(round(1.0 / resolution)) + 1
        surface = _full_grid_surface(target.extended_f(), source.extended().entries, n_side)
        i, j = divmod(int(np.argmin(surface)), n_side)
        step = 1.0 / (n_side - 1)
        assert nll_grid_argmin(source, target, resolution) == (i * step, j * step, surface[i, j])
        # The certain sample floors interior cells, so every row is scored.
        assert (pruned[0] is None) == (shape == "certain_sample")
        where = {"row_0": i == 0, "row_last": i == n_side - 1, "column_t1": j == n_side - 1,
                 "vertex_t0": (i, j) == (0, 0)}
        assert where.get(shape, 0 < j < n_side - 1)

    def test_scores_few_rows_exactly(self, monkeypatch):
        # c01's first scenario at 0.001: the bounds rule out all but a few rows.
        scored = []
        scan = em._K2Grid.scan

        def spy(grid, rows, *best):
            scored.append(rows.size)
            return scan(grid, rows, *best)

        monkeypatch.setattr(em._K2Grid, "scan", spy)
        cfg = _random_k2_scenario(np.random.default_rng(101), seed=1000)
        _, target, _, _ = make_scenario(cfg)
        nll_grid_argmin(SourceLabelModel(cfg.c, cfg.rho_s), target.records, resolution=0.001)
        assert 0 < sum(scored) <= 64

    @pytest.mark.parametrize("n, resolution", [
        (300, 0.01), (300, 0.001), (300, 0.0005),
        (20_000, 0.01),  # one row per block
    ])
    def test_transient_memory_bounded_by_cell_budget(self, n, resolution):
        # Two cell buffers of the cell budget and a u block of half that; then W and
        # its build, and a constant for numpy's ufunc buffers and small vectors.
        cfg = ring_config(2, radius=2.5, scale=1.0, rho_s=0.6, n_source=500, n_target=n,
                          n_ood_ref=500, shift=ShiftSpec.dirichlet(1.0), r=0.8, seed=3)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        cells = max(em._GRID_CELLS_PER_BLOCK, 2 * n)
        bound = 8 * (5 * cells // 2) + 64 * n + 256 * 1024
        gc.collect()
        tracemalloc.start()
        try:
            nll_grid_argmin(source, target.records, resolution=resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("resolution", [0.3, 0.7, 2.0, 0.0, -0.1, math.nan, math.inf,
                                            1e-320])
    def test_rejects_resolution_off_a_whole_grid(self, resolution):
        cfg = easy_config(k=2, seed=0, n=50)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        with pytest.raises(ValidationError, match=f"resolution.*got {resolution}"):
            nll_grid_argmin(source, target.records, resolution=resolution)

    @pytest.mark.parametrize("resolution, n_side", [(1.0, 2), (0.5, 3), (1 / 3, 4), (0.25, 5)])
    def test_coarse_resolutions(self, resolution, n_side):
        cfg = easy_config(k=2, seed=0, n=50)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        surface = _full_grid_surface(target.records.extended_f(), source.extended().entries,
                                     n_side)
        i, j = divmod(int(np.argmin(surface)), n_side)
        step = 1.0 / (n_side - 1)
        assert nll_grid_argmin(source, target.records, resolution) == (
            i * step, j * step, surface[i, j])

    def test_matches_em(self):
        cfg = overlap_config(k=2, seed=14, n=300, shift=ShiftSpec.ordered_lt(10), separation=2.5)
        _, target, ood_ref, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        p1, rho, _ = nll_grid_argmin(source, target.records)
        trace = run_em(source, target.records, EmConfig(max_iters=2000, tol=1e-12))
        assert abs(p1 - trace.pi_final.entries[0]) <= 2e-3
        assert abs(rho - trace.rho_t_final) <= 2e-3

    def test_requires_k2(self):
        cfg = easy_config(k=3, seed=0, n=50)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        with pytest.raises(ValidationError):
            nll_grid_argmin(source, target.records)


class TestEmConfig:
    def test_alpha_validation(self):
        with pytest.raises(ValidationError):
            EmConfig(alpha_in=np.array([0.5, 2.0]))
        with pytest.raises(ValidationError):
            EmConfig(alpha_in=np.array([np.nan, 2.0]))
        with pytest.raises(ValidationError):
            EmConfig(alpha_out=(0.9, 1.0))
        with pytest.raises(ValidationError):
            EmConfig(alpha_out=(np.nan, 1.0))
        with pytest.raises(ValidationError):
            EmConfig(max_iters=0)
        for prior in ({"alpha_in": np.array([math.inf, 2.0])}, {"alpha_out": (math.inf, 1.0)},
                      {"alpha_out": (1.0, -math.inf)}):
            name = next(iter(prior))
            with pytest.raises(ValidationError, match=f"^{name} must be finite numbers >= 1; got "):
                EmConfig(**prior)
        for max_iters in (2.5, 100.0, "100", None):
            with pytest.raises(ValidationError, match="max_iters"):
                EmConfig(max_iters=max_iters)
        assert EmConfig(max_iters=np.int64(7)).max_iters == 7

    def test_alpha_in_is_a_copy(self):
        alpha = np.full(3, 2.0)
        config = EmConfig(alpha_in=alpha)
        alpha[0] = 5.0  # the caller's array stays writeable, and the config's is its own
        assert config.alpha_in.tolist() == [2.0, 2.0, 2.0] and not config.alpha_in.flags.writeable

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-12])
    def test_tol_validation(self, tol):
        with pytest.raises(ValidationError, match="tol"):
            EmConfig(tol=tol)

    def test_defaults(self):
        assert EmConfig().max_iters == 100 and EmConfig().tol == 1e-10

    def test_is_mle(self):
        assert EmConfig().is_mle
        assert EmConfig(alpha_in=np.ones(3)).is_mle
        assert not EmConfig(alpha_in=np.array([2.0, 1.0])).is_mle
        assert not EmConfig(alpha_out=(2.0, 1.0)).is_mle


TINY = np.finfo(float).tiny


class TestFlushSubnormals:
    def test_zeroes_exactly_the_entries_below_tiny(self):
        col = np.array([0.0, 5e-324, TINY / 2, np.nextafter(TINY, 0.0), TINY, 2.0 * TINY,
                        1e-300, 0.5, 3.0])
        w = np.asfortranarray(np.stack([col, col[::-1], np.full(col.size, 0.25)], axis=1))
        want = np.where(w < TINY, 0.0, w)
        got = em.flush_subnormals(w)
        assert got is w and w.flags.f_contiguous
        assert w.tobytes() == want.tobytes()
        assert np.count_nonzero(w) == 3 * col.size - 2 * 4  # the zero and three subnormals

    def test_built_w_holds_no_subnormal(self, monkeypatch):
        f = np.array([[1.0 - 3e-320, 3e-320, 0.0], [0.5, 0.25, 0.25], [1e-310, 0.5, 0.5 - 1e-310]])
        target = RecordSet(f, np.array([0.9, 1e-320, 0.5]))
        source = SourceLabelModel([0.25, 0.5, 0.25], 0.7)
        unflushed = [target.extended_f() / source.extended().entries, target.f / source.c.entries]
        built = [em._scaled_outputs(source, target)]
        monkeypatch.setattr(bl, "fit", lambda w, *args: built.append(w.copy()))
        bl.mlls(target.f, source.c.entries)
        for w, old in zip(built, unflushed):
            assert np.any((old > 0.0) & (old < TINY))
            assert not np.any((w > 0.0) & (w < TINY))
            assert w.tobytes(order="C") == np.where(old < TINY, 0.0, old).tobytes()

    @pytest.fixture(scope="class")
    def k100(self):
        """A K=100 ring scenario whose target W has subnormal entries."""
        cfg = ring_config(100, radius=30.0, ood_scale=15.0, rho_s=0.7, n_source=5000,
                          n_target=2000, n_ood_ref=100, shift=ShiftSpec.ordered_lt(100.0),
                          seed=3)
        source, target, _, _ = make_scenario(cfg)
        c = source_class_frequencies(source.records)
        return SourceLabelModel(c, 0.7), target.records

    @pytest.mark.parametrize("config", [{}, {"max_iters": 300, "tol": 0.0}])
    @pytest.mark.parametrize("method", ["osls-mle", "osls-map", "mlls", "mapls"])
    def test_k100_fits_match_the_unflushed_w(self, k100, method, config):
        model, target = k100
        c = model.c.entries
        alpha = np.full(target.k, 2.0) if method.endswith("map") else None
        if method.startswith("osls"):
            config = EmConfig(alpha_in=alpha, **config)
            w = target.extended_f(order="F")
            w /= model.extended().entries
            new, old = run_em(model, target, config), em.fit(w, c, model.rho_s, config)
        else:
            w = normalized_rows(target.f, "f", out=np.empty(target.f.shape, order="F"))
            w /= c
            fit = bl.mlls if alpha is None else partial(bl.mapls, alpha=alpha)
            new = fit(target.f, c, **config)
            old = em.fit(w, c, None, EmConfig(alpha_in=alpha, **config))
        assert np.any((w > 0.0) & (w < TINY))  # the scenario exercises the flush
        assert new.nll_per_iter.tobytes() == old.nll_per_iter.tobytes()
        assert new.pi_final.entries.tobytes() == old.pi_final.entries.tobytes()
        assert new.rho_t_final == old.rho_t_final
        assert (new.iterations_run, new.map_evaluations, new.converged) == (
            old.iterations_run, old.map_evaluations, old.converged)


def _fw_gap(w, x):
    """Frank-Wolfe gap per row of the NLL ``-sum(log(W x))`` on the simplex, at x."""
    g = w.T @ (1.0 / (w @ x)) / w.shape[0]
    return float(g.max() - x @ g)


def _map_fw_gap(w, x, alpha, alpha_out=None):
    """Frank-Wolfe gap per row of the MAP objective over mixing weights x on the simplex.

    The objective is the NLL ``-sum(log(W x))`` minus the log prior of ``pi =
    x_in / sum(x_in)`` (Dirichlet ``alpha``) and, open-set (``alpha_out`` given),
    of ``rho = sum(x_in) / sum(x)`` (Beta ``alpha_out``), written in (pi, rho).
    Its gradient in x is taken by complex steps, one coordinate at a time.
    """
    def objective(z):
        z_in = z if alpha_out is None else z[:-1]
        rho = None if alpha_out is None else z_in.sum() / z.sum()
        return _map_objective(w, z, z_in / z_in.sum(), rho, alpha, alpha_out)

    g = _complex_step_gradient(objective, x)
    return float(x @ g - g.min()) / w.shape[0]


def _map_product_gap(w, pi, rho, alpha, alpha_out):
    """Frank-Wolfe gap per row of the open-set MAP objective over (pi, rho).

    The domain is the simplex of pi times [0, 1] for rho, so the gap is pi's
    gap plus rho's; the gradient is taken by complex steps.
    """
    def objective(z):
        return _map_objective(w, em.mixing(z[:-1], z[-1]), z[:-1], z[-1], alpha, alpha_out)

    g = _complex_step_gradient(objective, np.append(pi, rho))
    g_pi, g_rho = g[:-1], g[-1]
    return (float(pi @ g_pi - g_pi.min()) + max(rho * g_rho, (rho - 1.0) * g_rho)) / w.shape[0]


def _map_objective(w, x, pi, rho, alpha, alpha_out):
    """NLL of mixing weights x minus the log prior of (pi, rho); closed-set for rho None."""
    val = -np.sum(np.log(w @ x)) - np.sum((alpha - 1.0) * np.log(pi))
    if rho is not None:
        val -= (alpha_out[0] - 1.0) * np.log(rho) + (alpha_out[1] - 1.0) * np.log(1.0 - rho)
    return val


def _complex_step_gradient(fn, z, step=1e-30):
    """The gradient of a real-analytic ``fn`` at z, one complex step per coordinate."""
    return np.array([fn(z + 1j * step * np.eye(z.size)[j]).imag / step for j in range(z.size)])


def _no_rows_from_class_3(rng, n):
    """Posteriors of n rows from classes 1 and 2 alone, each giving class 3 a share of 1%."""
    f = np.full((n, 3), 0.01)
    f[:, :2] = 0.99 * rng.dirichlet([2.0, 2.0], n)
    return f


class TestRules:
    """The prior in x, the certificate's scale and the "better point" test, on small inputs."""

    @pytest.mark.parametrize("am1,bm1,x", [
        ([5e-4, 1.0], None, [0.0, 1.0]),  # a small weight on a zero share
        ([0.0, 0.0], (1.0, 0.0), [0.0, 0.0, 1.0]),  # a tail weight where 1 - x_K is 0
        ([0.0, 0.0], (0.0, 5e-4), [0.5, 0.5, 0.0]),
    ])
    def test_derivatives_are_none_where_the_prior_is_infinite(self, am1, bm1, x):
        assert em.Prior(np.array(am1), bm1).derivatives(np.array(x)) is None

    @pytest.mark.parametrize("am1,bm1,pi,rho", [
        ([5e-4, 1.0], (0.0, 0.0), [0.0, 1.0], 0.5),  # a small weight on a zero share
        ([0.0, 0.0], (1.0, 0.0), [0.5, 0.5], 0.0),  # a weight on log rho at rho = 0
        ([0.0, 0.0], (0.0, 1.0), [0.5, 0.5], 1.0),  # a weight on log(1 - rho) at rho = 1
    ])
    def test_chart_gradient_is_none_where_the_prior_is_infinite(self, am1, bm1, pi, rho):
        assert em.Prior(np.array(am1), bm1).chart_gradient(np.array(pi), rho) is None

    def test_chart_gradient_is_finite_at_the_ends_of_rho_without_their_weight(self):
        g_pi, g_rho = em.Prior(np.array([5e-4, 3.0]), (0.0, 2.0)).chart_gradient(
            np.array([4e-4, 0.9996]), 0.0)
        np.testing.assert_allclose(g_pi, [-1.25, -3.0 / 0.9996], rtol=1e-15)
        assert g_rho == 2.0
        _, g_rho = em.Prior(np.array([1.0, 3.0]), (2.0, 0.0)).chart_gradient(
            np.array([0.25, 0.75]), 1.0)
        assert g_rho == -2.0
        # Small, but P is finite: rho and 1 - rho are 5e-4.
        prior, pi = em.Prior(np.zeros(2), (1.0, 1.0)), np.array([0.5, 0.5])
        assert prior.chart_gradient(pi, 5e-4)[1] == pytest.approx(-1998.9995)
        assert prior.chart_gradient(pi, 1.0 - 5e-4)[1] == pytest.approx(1998.9995)

    def test_value_in_pi_and_rho(self):
        pi, rho = np.array([0.25, 0.75]), 0.2
        value = em.Prior(np.array([1.0, 2.0]), (2.0, 3.0)).value(pi, rho)
        want = -(np.log(0.25) + 2.0 * np.log(0.75) + 2.0 * np.log(0.2) + 3.0 * np.log(0.8))
        assert value == pytest.approx(want, rel=1e-15)
        assert em.Prior(np.array([1.0, 2.0])).value(pi, None) == pytest.approx(
            -(np.log(0.25) + 2.0 * np.log(0.75)), rel=1e-15)

    def test_derivatives_near_the_tail_end(self):
        # 1 - x_K is 5e-4: small, but P is finite there.
        grad, curv = em.Prior(np.zeros(2), (1.0, 0.0)).derivatives(np.array([2e-4, 3e-4, 0.9995]))
        np.testing.assert_allclose(grad, [0.0, 0.0, 2000.0], rtol=1e-9)
        np.testing.assert_allclose(curv, [0.0, 0.0, 4e6], rtol=1e-9)

    def test_certificate_is_per_row_and_the_gap_itself_for_no_rows(self):
        x, u, prior = np.array([0.5, 0.5]), np.array([1.0, 3.0]), em.Prior(np.zeros(2))
        assert em.certificate(x, None, x, u, 0, prior) == 1.0  # x . (-u) - min(-u) = -2 + 3
        assert em.certificate(x, None, x, u, 4, prior) == 0.25

    @pytest.mark.parametrize("pi,better", [([1.0, 0.0], False), ([0.9999, 1e-4], True)])
    def test_better_needs_every_likelihood_positive(self, pi, better):
        w, prior = np.eye(2), em.Prior(np.zeros(2))
        point = em._better(w, np.array(pi), None, 1e9, math.inf, prior, np.empty(2))
        assert (point is not None) == better

    def test_equal_certificate_is_not_better(self):
        # The same point again: its objective ties, and so does its certificate.
        w = np.array([[1.0, 0.5], [0.2, 1.0], [0.7, 0.7]])
        pi, prior = np.array([0.3, 0.7]), em.Prior(np.array([1.0, 0.0]))
        d = w @ pi
        cert = em.certificate(pi, None, pi, em.e_step(w, d), 3, prior)
        obj = em.objective(d, pi, None, prior)
        assert em._better(w, pi, None, obj, cert, prior, np.empty(3)) is None
        point = em._better(w, pi, None, obj, 2.0 * cert, prior, np.empty(3))
        assert point is not None and point[5] is not None  # u was formed for the certificate

    def test_rounding_band_includes_its_ends(self):
        band = 64 * float(np.finfo(float).eps)  # the band at objective 0 over one row: 2**-46
        assert em._lower(0.0, band, 1) is None
        assert em._lower(0.0, -band, 1) is None
        assert em._lower(0.0, 2.0 * band, 1) is False
        assert em._lower(0.0, -2.0 * band, 1) is True


class TestCertificate:
    """The certificate every fit with tol > 0 stops on, and the Newton steps that reach it."""

    # The sweep-small benchmark grid: 18 scenarios, four EM fits each, 3926 EM maps
    # in all and six fits stopped unconverged at the 100-map cap before Newton steps.
    GRID_WORK_BEFORE = 3926

    def test_sweep_grid_fits_converge_in_half_the_work(self, monkeypatch):
        traces = []
        fit = em.fit
        spy = lambda *args: traces.append(fit(*args)) or traces[-1]
        monkeypatch.setattr(em, "fit", spy)
        monkeypatch.setattr(bl, "fit", spy)
        base = ring_config(10, radius=3.0, scale=1.0, rho_s=0.7, n_source=5000,
                           n_target=5000, n_ood_ref=2500)
        cells, failures = run_sweep(base, ["lt:10", "lt:100", "dirichlet:1"], [1.0, 0.1],
                                    [101, 102, 103], ["osls-mle", "osls-map", "mlls", "mapls"])
        assert not failures and len(traces) == 72
        for trace in traces:
            assert trace.converged and trace.certificate <= EmConfig.tol
        work = sum(t.map_evaluations + t.newton_steps for t in traces)
        assert work <= self.GRID_WORK_BEFORE / 2

    def test_capped_k100_mlls_converges(self):
        # fit-inmem's K=100 case at seed 1: its mlls fit stopped at the cap, 2.4e-5 off.
        cfg = ring_config(100, radius=30.0, ood_scale=15.0, rho_s=0.7, n_source=20_000,
                          n_target=5000, n_ood_ref=5000, shift=ShiftSpec.ordered_lt(100.0),
                          r=1.0, seed=11)
        source, target, _, _ = make_scenario(cfg)
        c = source_class_frequencies(source.records)
        trace = bl.mlls(target.records, c)
        assert trace.converged and trace.certificate <= EmConfig.tol
        assert trace.map_evaluations + trace.newton_steps < 100
        w = target.records.f / c.entries
        np.testing.assert_allclose(w.T @ (1.0 / (w @ trace.pi_final.entries)) / w.shape[0],
                                   1.0, atol=1e-9)  # every class is on the support here

    @pytest.mark.parametrize("seed", range(4))
    def test_mle_certificate_is_the_frank_wolfe_gap(self, seed):
        cfg = overlap_config(k=5, seed=seed, n=2000, shift=ShiftSpec.dirichlet(1.0))
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        open_w = target.records.extended_f() / source.extended().entries
        closed_w = target.records.f / source.c.entries
        for max_iters in (3, 100):
            for trace, w in ((run_em(source, target.records, EmConfig(max_iters)), open_w),
                             (bl.mlls(target.records, source.c, max_iters), closed_w)):
                x = em.mixing(trace.pi_final.entries, trace.rho_t_final)
                gap = _fw_gap(w, x)
                assert abs(trace.certificate - max(gap, 0.0)) <= 1e-13
                assert trace.converged == (trace.certificate <= EmConfig.tol)

    @pytest.mark.parametrize("seed", range(4))
    def test_map_certificate_is_the_frank_wolfe_gap_where_the_objective_is_convex(self, seed):
        # mapls's objective is convex in x, and so is osls-map's where the Beta
        # parameter on rho outweighs the Dirichlet's sum (Prior.convex): their
        # certificate is the gap over x. Beta (9, 1.5) makes the tail
        # sum(alpha - 1) - 8 = -0.5; the two Beta parameters differ, so a slip
        # between rho and 1 - rho shows.
        cfg = overlap_config(k=5, seed=seed, n=2000, shift=ShiftSpec.dirichlet(1.0))
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        open_w = target.records.extended_f() / source.extended().entries
        closed_w = target.records.f / source.c.entries
        alpha, alpha_out = 1.0 + np.arange(1.0, 6.0) / 2.0, (9.0, 1.5)
        for max_iters in (3, 100):
            open_trace = run_em(source, target.records,
                                EmConfig(max_iters, alpha_in=alpha, alpha_out=alpha_out))
            closed_trace = bl.mapls(target.records, source.c, alpha, max_iters)
            for trace, w, beta in ((open_trace, open_w, alpha_out), (closed_trace, closed_w, None)):
                x = em.mixing(trace.pi_final.entries, trace.rho_t_final)
                gap = _map_fw_gap(w, x, alpha, beta)
                assert abs(trace.certificate - max(gap, 0.0)) <= 1e-13
                assert trace.converged == (trace.certificate <= EmConfig.tol)

    @pytest.mark.parametrize("seed", range(4))
    def test_nonconvex_map_certificate_is_the_frank_wolfe_gap_over_pi_and_rho(self, seed):
        # Beta (3, 1.5) leaves the tail positive (7.5 - 2), so the objective is
        # not convex in x; the certificate is then the gap over (pi, rho).
        cfg = overlap_config(k=5, seed=seed, n=2000, shift=ShiftSpec.dirichlet(1.0))
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        w = target.records.extended_f() / source.extended().entries
        alpha, alpha_out = 1.0 + np.arange(1.0, 6.0) / 2.0, (3.0, 1.5)
        # From rho_t = 0.02 one map leaves rho_t below its optimum, where the gap
        # comes from raising it.
        low = TargetLabelModel(source.c, 0.02)
        for max_iters, init in ((3, None), (100, None), (1, low)):
            trace = run_em(source, target.records,
                           EmConfig(max_iters, alpha_in=alpha, alpha_out=alpha_out), init)
            gap = _map_product_gap(w, trace.pi_final.entries, trace.rho_t_final, alpha, alpha_out)
            assert abs(trace.certificate - max(gap, 0.0)) <= 1e-13
            assert trace.converged == (trace.certificate <= EmConfig.tol)

    @pytest.mark.parametrize("alpha", [[1.0, 1.0, 1.0], [1.0, 1.5, 1.0]])
    def test_convex_open_set_map_fit_takes_newton_steps_to_the_plain_em_optimum(self, alpha):
        # A Beta (3, 1) prior on rho makes the tail sum(alpha - 1) - 2 negative, so
        # Newton steps skip the Cholesky test. Class 3 has no target rows, so
        # the optimum puts its share at 0 and the fit hands over to Newton.
        rng = np.random.default_rng(7)
        n = 3000
        records = RecordSet(_no_rows_from_class_3(rng, n), rng.uniform(0.3, 1.0, n))
        source = SourceLabelModel(np.full(3, 1.0 / 3.0), 0.7)
        alpha, alpha_out = np.array(alpha), (3.0, 1.0)
        assert em.Prior(alpha - 1.0, (2.0, 0.0)).convex
        trace = run_em(source, records, EmConfig(alpha_in=alpha, alpha_out=alpha_out))
        assert trace.converged and trace.certificate <= EmConfig.tol and trace.newton_steps > 0
        assert trace.pi_final.entries[2] == 0.0
        w = records.extended_f() / source.extended().entries
        pi, rho, obj, _, done = plain_em(w, source.c.entries, 0.7, alpha, alpha_out, 1e-15, 5000)
        assert done
        np.testing.assert_allclose(trace.pi_final.entries, pi, rtol=0.0, atol=1e-10)
        assert abs(trace.rho_t_final - rho) <= 1e-10
        assert trace.nll_per_iter[-1] <= obj + 1e-12 * abs(obj)

    @pytest.mark.parametrize("open_set", [False, True])
    def test_class_without_target_rows_ends_at_exactly_zero(self, open_set):
        # No target row comes from class 3, and every row gives it 1%: the
        # likelihood rises as its share falls, so the optimum puts it at 0.
        n = 3000
        f = _no_rows_from_class_3(np.random.default_rng(7), n)
        records = RecordSet(f, np.full(n, 0.9) if open_set else np.ones(n))
        c = np.full(3, 1.0 / 3.0)
        if open_set:
            source = SourceLabelModel(c, 0.7)
            trace = run_em(source, records)
            w = records.extended_f() / source.extended().entries
        else:
            trace = bl.mlls(records, c)
            w = records.f / c
        x = em.mixing(trace.pi_final.entries, trace.rho_t_final)
        assert trace.pi_final.entries[2] == 0.0
        assert trace.converged and trace.newton_steps > 0
        g = w.T @ (1.0 / (w @ x)) / n
        support = x > 0.0
        np.testing.assert_allclose(g[support], 1.0, atol=1e-9)  # KKT: equal on the support
        assert np.all(g[~support] <= 1.0)  # and no lower off it

    @pytest.mark.parametrize("open_set", [False, True])
    def test_class_without_target_rows_or_prior_weight_ends_at_exactly_zero(self, open_set):
        # As above under a MAP fit whose prior gives class 3 no weight: the prior
        # is finite where that share is 0, and so is the certificate.
        rng = np.random.default_rng(7)
        n = 3000
        f = _no_rows_from_class_3(rng, n)
        alpha = np.array([2.0, 3.0, 1.0])
        c = np.full(3, 1.0 / 3.0)
        if open_set:  # scores spread, so that rho_t lies inside (0, 1)
            trace = run_em(SourceLabelModel(c, 0.7), RecordSet(f, rng.uniform(0.3, 1.0, n)),
                           EmConfig(alpha_in=alpha))
        else:
            trace = bl.mapls(RecordSet(f, np.ones(n)), c, alpha)
        assert trace.pi_final.entries[2] == 0.0
        assert trace.converged and trace.certificate <= EmConfig.tol

    @pytest.mark.parametrize("am1,bm1", [([0.0, 0.0], (2.0, 0.0)), ([0.0, 0.0], (0.0, 0.0)),
                                         ([5e-4, 0.0], (0.0, 0.0)), ([1.0, 2.0], (0.5, 1.0)),
                                         ([0.0, 0.0], (0.0, 3.0))])
    def test_prior_is_convex_exactly_where_its_hessian_is(self, am1, bm1):
        # P's Hessian is diagonal; its last entry falls below 0 as x_K nears 1
        # exactly when the tail weight on log(1 - x_K) is positive.
        prior = em.Prior(np.array(am1), bm1)
        _, curv = prior.derivatives(np.array([5e-4, 5e-4, 0.999]))
        assert prior.convex == bool(np.all(curv >= 0.0))

    def test_zero_rows_start_near_the_prior_mode(self):
        # With no target rows the objective is the prior alone; a start near its
        # mode hands over to Newton steps at once, on a Hessian with no rows.
        trace = em.fit(np.zeros((0, 2)), np.array([0.334, 0.666]), None,
                       EmConfig(alpha_in=np.array([2.0, 3.0])))
        assert trace.newton_steps > 0 and trace.converged
        np.testing.assert_allclose(trace.pi_final.entries, [1 / 3, 2 / 3], rtol=0, atol=1e-10)

    def test_rounding_is_left_to_the_certificate(self):
        assert em._lower(-1000.0, -1001.0, 5000) is True
        assert em._lower(-1000.0, -999.0, 5000) is False
        assert em._lower(-1000.0, -1000.0 - 1e-12, 5000) is None
        assert em._lower(-1000.0, -1000.0 + 1e-12, 5000) is None

    def test_newton_steps_near_the_optimum_are_judged_by_the_certificate(self, monkeypatch):
        # A sweep-small grid point whose osls-map fit reaches a certificate of
        # about 1e-9, where a full Newton step lowers the objective by less than
        # the rounding of its sum of 5000 logs. Judged by the objective alone,
        # that step was declined and the fit went back to SQUAREM.
        steps = []
        step = em._Newton.step
        monkeypatch.setattr(em._Newton, "step",
                            lambda *args: steps.append(step(*args)) or steps[-1])
        cfg = ring_config(10, radius=3.0, scale=1.0, rho_s=0.7, n_source=5000, n_target=5000,
                          n_ood_ref=2500, shift=ShiftSpec.parse("lt:10"), r=1.0, seed=101)
        source, target, ood_ref, _ = make_scenario(cfg)
        h = ood_ref.records.h
        report = estimate("osls-map", source.records, target.records, mu0_hat=float(np.mean(h)),
                          n_ood=h.size, em_config=EmConfig(alpha_in=np.full(10, 2.0)))
        assert report.converged and report.certificate <= EmConfig.tol
        assert steps and all(point is not None for point in steps)

    def test_osls_map_declined_cholesky_goes_on_with_squarem(self, monkeypatch):
        # Two classes, six target rows and strong unequal priors: the prior's
        # nonconvexity in x outweighs the data's curvature at some iterate.
        declined = []
        solve = em._reduced_solve

        def spy(h, grad, free, convex):
            step = solve(h, grad, free, convex)
            declined.append(step is None and not convex)
            return step

        monkeypatch.setattr(em, "_reduced_solve", spy)
        rng = np.random.default_rng(11)
        k, n = int(rng.integers(2, 5)), int(rng.integers(3, 30))  # two classes, six rows
        f, h = rng.dirichlet(np.full(k, 0.5), n), rng.random(n)
        c = rng.dirichlet(np.full(k, 5.0))
        alpha = 1.0 + 20.0 * rng.random(k)
        w = np.concatenate([f * h[:, None], (1.0 - h)[:, None]], axis=1) / np.append(0.7 * c, 0.3)
        trace = em.fit(np.asfortranarray(w), c, 0.7, EmConfig(alpha_in=alpha))
        assert any(declined)
        assert trace.converged and trace.certificate <= EmConfig.tol
        assert np.all(np.diff(trace.nll_per_iter) <= 1e-9)
        assert trace.map_evaluations + trace.newton_steps <= EmConfig.max_iters

    def test_zero_tol_reports_the_certificate_of_plain_em(self):
        cfg = easy_config(k=3, seed=1, n=500)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        trace = run_em(source, target.records, EmConfig(max_iters=5, tol=0.0))
        assert trace.newton_steps == 0 and not trace.converged
        w = target.records.extended_f() / source.extended().entries
        x = em.mixing(trace.pi_final.entries, trace.rho_t_final)
        assert abs(trace.certificate - _fw_gap(w, x)) <= 1e-13
