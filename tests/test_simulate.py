import numpy as np
import pytest

from osls.core import ProbabilityVector, ValidationError
from osls.estimators import correct_rho, rho_t_bound
from osls.simulate import (
    GaussianComponents,
    LabeledDataset,
    Scenario,
    ScenarioConfig,
    ShiftSpec,
    dirichlet_shift,
    distort_scorer,
    gen_pseudo_ood,
    make_scenario,
    ordered_lt_shift,
    ring_config,
    subsample_to_ratio,
)

from conftest import easy_config, overlap_config


class TestDirichletShift:
    def test_single_class(self):
        np.testing.assert_array_equal(dirichlet_shift(1, 1.0, 42).entries, [1.0])

    def test_concentration_at_large_alpha(self):
        draws = np.stack([dirichlet_shift(5, 1000.0, seed).entries for seed in range(1000)])
        np.testing.assert_allclose(draws.mean(axis=0), 0.2, atol=0.01)

    def test_golden_seed(self):
        # regression pin of the package's own seeded stream, not external truth
        got = dirichlet_shift(3, 1.0, 42).entries
        np.testing.assert_allclose(
            got, [0.3374252443136453, 0.32787893865749046, 0.3346958170288642], atol=1e-12
        )

    def test_validates(self):
        for alpha in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="alpha must be a finite number > 0"):
                dirichlet_shift(3, alpha, 1)
            with pytest.raises(ValidationError, match="alpha must be a finite number > 0"):
                ShiftSpec.dirichlet(alpha)


class TestOrderedLtShift:
    def test_two_class_forward(self):
        out = ordered_lt_shift(2, 100.0, "forward")
        np.testing.assert_allclose(out.entries, [100 / 101, 1 / 101], atol=1e-12)

    def test_unit_imbalance_uniform(self):
        for k in (1, 2, 5):
            np.testing.assert_allclose(ordered_lt_shift(k, 1.0).entries, np.full(k, 1 / k))

    def test_backward_is_reverse(self):
        fwd = ordered_lt_shift(6, 50.0, "forward").entries
        bwd = ordered_lt_shift(6, 50.0, "backward").entries
        np.testing.assert_allclose(bwd, fwd[::-1])

    def test_validates(self):
        for imbalance in (0.5, np.nan, np.inf):
            with pytest.raises(ValidationError, match="imbalance must be a finite number >= 1"):
                ordered_lt_shift(3, imbalance)
            with pytest.raises(ValidationError, match="imbalance must be a finite number >= 1"):
                ShiftSpec.ordered_lt(imbalance)
        with pytest.raises(ValidationError):
            ordered_lt_shift(3, 10.0, "sideways")


class TestShiftSpec:
    def test_parse(self):
        assert ShiftSpec.parse("none").kind == "none"
        spec = ShiftSpec.parse("dirichlet:10")
        assert spec.kind == "dirichlet" and spec.alpha == 10.0
        spec = ShiftSpec.parse("lt:100:backward")
        assert spec.imbalance == 100.0 and spec.order == "backward"

    def test_key_round_trip(self):
        for text in ("none", "dirichlet:1", "lt:100:forward"):
            assert ShiftSpec.parse(ShiftSpec.parse(text).key()).key() == ShiftSpec.parse(text).key()

    @pytest.mark.parametrize("kind", ["none", "dirichlet", "ordered_lt"])
    def test_one_order_rule_for_every_kind(self, kind):
        message = "^order must be forward or backward; got 'sideways'$"
        with pytest.raises(ValidationError, match=message):
            ShiftSpec(kind, order="sideways")
        with pytest.raises(ValidationError, match=message):
            ordered_lt_shift(3, 10.0, "sideways")

    # The last three have a field that is not a number.
    @pytest.mark.parametrize("text", ["lt:10:forward:junk", "none:5", "dirichlet:1:2",
                                      "ordered_lt:10:forward:1", "dirichlet:", "lt:x",
                                      "lt::forward"])
    def test_rejects_extra_fields(self, text):
        with pytest.raises(ValidationError, match="cannot parse shift spec"):
            ShiftSpec.parse(text)


class TestMakeScenario:
    def test_rho_t_from_r(self):
        assert easy_config(r=1.0).rho_t == pytest.approx(0.5)
        assert easy_config(r=0.01).rho_t == pytest.approx(1 / 1.01)

    def test_no_shift_truth(self):
        cfg = easy_config(k=3, seed=2, n=100)
        *_, truth = make_scenario(cfg)
        np.testing.assert_allclose(truth.pi.entries, cfg.c.entries)

    def test_separated_means_saturate_h(self):
        cfg = easy_config(k=3, seed=4, n=2000, separation=6.0)
        source, *_ = make_scenario(cfg)
        assert source.records.h.mean() >= 0.99

    def test_shared_class_conditionals(self):
        scenario = Scenario(easy_config(k=2, seed=0, n=10))
        assert scenario.source_components is scenario.target_components
        assert scenario.source_components is scenario.components

    def test_determinism(self):
        cfg = overlap_config(k=3, seed=77, n=500, shift=ShiftSpec.dirichlet(1.0))
        a = make_scenario(cfg)
        b = make_scenario(cfg)
        for da, db in zip(a[:3], b[:3]):
            np.testing.assert_array_equal(da.records.f, db.records.f)
            np.testing.assert_array_equal(da.records.h, db.records.h)
            np.testing.assert_array_equal(da.records.y, db.records.y)
            np.testing.assert_array_equal(da.features, db.features)
        assert a[3].rho_t == b[3].rho_t

    def test_oracle_posteriors_match_direct_bayes(self):
        from scipy.stats import norm

        means = np.array([[-2.0], [0.5], [3.0], [7.0]])
        scales = np.array([1.0, 0.7, 1.3, 2.0])
        c = np.array([0.2, 0.5, 0.3])
        rho_s = 0.65
        cfg = ScenarioConfig(
            k=3, class_means=means, class_scales=scales,
            c=ProbabilityVector(c), rho_s=rho_s, n_source=10, n_target=10,
            n_ood_ref=10, shift=ShiftSpec.none(), r=1.0, seed=0, feature_dim=1,
        )
        scenario = Scenario(cfg)
        xs = np.linspace(-6.0, 10.0, 100)[:, None]
        f, h = scenario.oracle_scores(xs)
        # independent direct evaluation of Bayes' rule
        pdf = np.stack([norm.pdf(xs[:, 0], means[j, 0], scales[j]) for j in range(4)], axis=1)
        joint_id = rho_s * c[None, :] * pdf[:, :3]
        joint_ood = (1.0 - rho_s) * pdf[:, 3]
        f_direct = joint_id / joint_id.sum(axis=1, keepdims=True)
        h_direct = joint_id.sum(axis=1) / (joint_id.sum(axis=1) + joint_ood)
        np.testing.assert_allclose(f, f_direct, atol=1e-10)
        np.testing.assert_allclose(h, h_direct, atol=1e-10)

    def test_temperature_softens(self):
        hot = Scenario(easy_config(k=2, seed=3, n=200))
        soft = Scenario(easy_config(k=2, seed=3, n=200, temperature=4.0))
        x = hot.sample_source().features
        _, h_hot = hot.oracle_scores(x)
        _, h_soft = soft.oracle_scores(x)
        assert np.mean(np.abs(h_soft - 0.5)) < np.mean(np.abs(h_hot - 0.5))

    def test_exact_ratio_target(self):
        scenario = Scenario(easy_config(k=2, seed=8, n=1000, r=0.01))
        target = scenario.sample_target_exact_ratio()
        n_id = int(np.sum(target.y <= 2))
        n_ood = int(np.sum(target.y == 3))
        assert n_ood == int(np.rint(0.01 * n_id))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            GaussianComponents(np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            ring_config(2, scale=-1.0)
        for k in (0, -1):
            with pytest.raises(ValidationError, match="k must be a whole number >= 1"):
                ring_config(k)
        with pytest.raises(ValidationError):
            easy_config(k=2, r=-0.5)


def _loop_first_coinciding_pair(means):
    """The pairwise loop the component check replaces: lowest i first, then lowest j."""
    for i in range(means.shape[0]):
        for j in range(i + 1, means.shape[0]):
            if np.allclose(means[i], means[j]):
                return i, j
    return None


class TestRingConfig:
    # A string or a bool in place of radius, scale or ood_scale is named by
    # tests/test_core.py's scalar table.
    @pytest.mark.parametrize("name", ["scale", "ood_scale"])
    def test_scales_must_be_positive(self, name):
        with pytest.raises(ValidationError, match=f"^{name} must be a finite number > 0; got 0$"):
            ring_config(2, **{name: 0})

    def test_explicit_means_replace_the_ring(self):
        # radius = 0 puts every ring mean at the origin; explicit means leave it unused.
        means = [[3.0, 0.0, 1.0], [-3.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        cfg = ring_config(2, radius=0, class_means=means, feature_dim=2, scale=0.5,
                          ood_scale=2)
        np.testing.assert_array_equal(cfg.class_means, means)
        assert cfg.feature_dim == 3
        np.testing.assert_array_equal(cfg.class_scales, [0.5, 0.5, 2.0])

    def test_explicit_scales_replace_scale_and_ood_scale(self):
        cfg = ring_config(2, scale=0, ood_scale="x", class_scales=[1, 1, 2])
        np.testing.assert_array_equal(cfg.class_scales, [1.0, 1.0, 2.0])
        np.testing.assert_array_equal(cfg.class_means, ring_config(2).class_means)

    def test_int_scale_keeps_a_fractional_ood_scale(self):
        np.testing.assert_array_equal(ring_config(2, scale=1, ood_scale=1.5).class_scales,
                                      [1.0, 1.0, 1.5])


class TestComponentCheck:
    def test_names_the_loops_first_pair(self):
        means = np.stack([np.arange(10.0), np.zeros(10)], axis=1)
        means[7] = means[2]  # pair (2, 7): lowest i
        means[4] = means[3]  # pair (3, 4): lower j, higher i
        assert _loop_first_coinciding_pair(means) == (2, 7)
        with pytest.raises(ValidationError, match="component means 2 and 7 coincide"):
            GaussianComponents(means, np.ones(10))

    @pytest.mark.parametrize("means,coincide", [
        # |m_i - m_j| <= 1e-8 + 1e-5 * |m_j| holds with equality
        ([[1e-8, 0.0], [0.0, 0.0]], True),
        ([[np.nextafter(1e-8, 1.0), 0.0], [0.0, 0.0]], False),
        ([[1000.0, 5.0], [1000.0099, 5.0]], True),
        ([[1000.0, 5.0], [1000.0101, 5.0]], False),
        # only one order is within tolerance: the test scales by the later mean
        ([[1000.0], [1000.01000006]], True),
        ([[1000.01000006], [1000.0]], False),
    ])
    def test_tolerance_is_allcloses(self, means, coincide):
        means = np.array(means)
        assert np.allclose(means[0], means[1]) is coincide
        if coincide:
            with pytest.raises(ValidationError, match="component means 0 and 1 coincide"):
                GaussianComponents(means, np.ones(2))
        else:
            GaussianComponents(means, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        means = np.array([[0.0, 0.0], [3.0, 0.0], [bad, 0.0]])
        with pytest.raises(ValidationError, match="means must be finite"):
            GaussianComponents(means, np.ones(3))
        with pytest.raises(ValidationError, match="scales must be finite"):
            GaussianComponents(means[:2], np.array([1.0, bad]))
        with pytest.raises(ValidationError, match="ood_scale must be a finite number > 0"):
            ring_config(2, ood_scale=bad)

    def test_scenario_shares_the_configs_components(self):
        cfg = easy_config(k=3, n=10)
        assert Scenario(cfg).components is cfg.components
        np.testing.assert_array_equal(cfg.components.means, cfg.class_means)


def _restated_log_pdf(means, scales, x):
    """log_pdf as first written: a broadcast (N, K+1, d) difference summed on axis 2."""
    d = means.shape[1]
    diff = x[:, None, :] - means[None, :, :]
    sq = np.sum(diff * diff, axis=2)
    return (
        -0.5 * sq / (scales**2)[None, :]
        - d * np.log(scales)[None, :]
        - 0.5 * d * np.log(2.0 * np.pi)
    )


def _restated_oracle_scores(cfg, x):
    """oracle_scores as first written: one exp for f and another for h's log-sum-exp."""
    logp = _restated_log_pdf(cfg.class_means, cfg.class_scales, x)
    log_prior = np.concatenate(
        [np.log(cfg.rho_s) + np.log(cfg.c.entries), [np.log(1.0 - cfg.rho_s)]]
    )
    joint = logp + log_prior[None, :]
    joint_id = joint[:, : cfg.k]
    m = joint_id.max(axis=1, keepdims=True)
    tau = cfg.temperature
    ef = np.exp((joint_id - m) / tau)
    f = ef / ef.sum(axis=1, keepdims=True)
    lse_id = m[:, 0] + np.log(np.exp(joint_id - m).sum(axis=1))
    z = (lse_id - joint[:, cfg.k]) / tau
    e = np.exp(-np.abs(z))
    return f, np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class TestOracleBitIdentity:
    """The sampler's arrays are the restated formulas' to the bit."""

    @pytest.mark.parametrize("temperature", [1.0, 2.5])
    @pytest.mark.parametrize("d", [2, 5, 9])
    @pytest.mark.parametrize("k", [1, 2, 10, 100])
    def test_matches_restated_formulas(self, k, d, temperature):
        rng = np.random.default_rng(1000 * k + 10 * d + int(temperature))
        cfg = ScenarioConfig(
            k=k, class_means=3.0 * rng.standard_normal((k + 1, d)),
            class_scales=rng.uniform(0.5, 2.0, k + 1),
            c=ProbabilityVector(rng.dirichlet(np.ones(k))), rho_s=0.7, n_source=10,
            n_target=10, n_ood_ref=10, shift=ShiftSpec.none(), r=1.0, seed=0,
            feature_dim=d, temperature=temperature,
        )
        x = 4.0 * rng.standard_normal((500, d))
        scenario = Scenario(cfg)
        got = scenario.components.log_pdf(x)
        assert np.array_equal(got, _restated_log_pdf(cfg.class_means, cfg.class_scales, x))
        f, h = scenario.oracle_scores(x)
        f_ref, h_ref = _restated_oracle_scores(cfg, x)
        assert np.array_equal(f, f_ref)
        assert np.array_equal(h, h_ref)


class TestGenPseudoOod:
    def test_gamma_zero_identity(self, rng):
        x = rng.standard_normal((50, 3))
        np.testing.assert_array_equal(gen_pseudo_ood(x, 0.0, 1), x)

    def test_gamma_one_pure_noise(self, rng):
        x1 = rng.standard_normal((50, 3))
        x2 = rng.standard_normal((50, 3))
        out1 = gen_pseudo_ood(x1, 1.0, 99)
        out2 = gen_pseudo_ood(x2, 1.0, 99)
        np.testing.assert_array_equal(out1, out2)  # independent of inputs

    def test_variance_scaling(self):
        x = np.zeros((100_000, 1))
        out = gen_pseudo_ood(x, 0.2, 5)
        assert np.var(out) == pytest.approx(0.04, rel=0.05)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            gen_pseudo_ood(np.zeros((2, 2)), 1.5, 0)


class TestSubsampleToRatio:
    def _dataset(self, n_id, n_ood):
        n = n_id + n_ood
        f = np.full((n, 2), 0.5)
        h = np.linspace(0.0, 1.0, n)
        y = np.r_[np.ones(n_id, dtype=int), np.full(n_ood, 3, dtype=int)]
        from osls.core import RecordSet

        return RecordSet(f, h, y)

    def test_basic_counts(self):
        data = self._dataset(100, 100)
        out, capped = subsample_to_ratio(data, 0.1, 0)
        assert not capped
        assert int(np.sum(out.y == 3)) == 10
        assert int(np.sum(out.y <= 2)) == 100

    def test_ratio_one_equal_counts(self):
        data = self._dataset(50, 50)
        out, capped = subsample_to_ratio(data, 1.0, 0)
        assert not capped and len(out) == 100

    def test_cap_flag(self):
        data = self._dataset(100, 5)
        out, capped = subsample_to_ratio(data, 1.0, 0)
        assert capped
        assert int(np.sum(out.y == 3)) == 5

    def test_no_id_error(self):
        data = self._dataset(1, 10)
        # relabel the single ID sample as OOD to empty the ID side
        from osls.core import RecordSet

        broken = RecordSet(data.f, data.h, np.full(len(data), 3, dtype=int))
        with pytest.raises(ValidationError):
            subsample_to_ratio(broken, 0.5, 0)

    def test_preserves_order_and_features(self):
        cfg = easy_config(k=2, seed=5, n=200, r=1.0)
        scenario = Scenario(cfg)
        target = scenario.sample_target()
        out, _ = subsample_to_ratio(target, 0.5, 3)
        assert isinstance(out, LabeledDataset)
        assert len(out) == len(out.features)
        # kept records appear in their original relative order (features are
        # effectively unique so positions identify rows)
        positions = [
            int(np.flatnonzero((target.features == row).all(axis=1))[0])
            for row in out.features[:10]
        ]
        assert positions == sorted(positions)


class TestColumnsKeptBitForBit:
    """Rebuilding records for new scores or a subset does not normalize ``f`` again."""

    @pytest.fixture(scope="class")
    def target(self):
        return make_scenario(ring_config(10, n_target=5000, seed=1))[1]

    def test_distort_scorer(self, target):
        out = distort_scorer(target, 0.2, 0.6).records
        assert out.f.tobytes() == target.records.f.tobytes()
        assert out.y.tobytes() == target.records.y.tobytes()

    def test_subsample_to_ratio(self, target):
        out, _ = subsample_to_ratio(target, 0.5, 3)
        kept = np.flatnonzero(np.isin(target.features[:, 0], out.features[:, 0]))
        assert len(kept) == len(out) < len(target)
        for new, old in zip((out.records.f, out.records.h, out.records.y),
                            (target.records.f, target.records.h, target.records.y)):
            assert new.tobytes() == old[kept].tobytes() and not new.flags.writeable


class TestDistortScorer:
    def test_identity(self):
        cfg = easy_config(k=2, seed=1, n=50)
        scenario = Scenario(cfg)
        target = scenario.sample_target()
        out = distort_scorer(target, 0.0, 1.0)
        np.testing.assert_array_equal(out.records.h, target.records.h)

    def test_binary_mapping(self):
        from osls.core import RecordSet

        data = RecordSet(np.full((4, 1), 1.0), np.array([0.0, 1.0, 0.0, 1.0]),
                         np.array([2, 1, 2, 1]))
        out = distort_scorer(data, 0.2, 0.6)
        np.testing.assert_allclose(out.h, [0.2, 0.8, 0.2, 0.8])

    def test_range_check(self):
        from osls.core import RecordSet

        data = RecordSet(np.full((1, 1), 1.0), np.array([1.0]), np.array([1]))
        with pytest.raises(ValidationError):
            distort_scorer(data, 0.5, 0.6)

    def test_population_recovery_within_bound(self):
        # affine-distorted oracle: correcting the mean response recovers rho_t
        cfg = easy_config(k=3, seed=11, n=10_000, r=1.0, separation=6.0)
        source, target, ood_ref, truth = make_scenario(cfg)
        distorted_target = distort_scorer(target, 0.2, 0.6)
        distorted_source = distort_scorer(source, 0.2, 0.6)
        distorted_ood = distort_scorer(ood_ref, 0.2, 0.6)
        rho_prime = float(distorted_target.records.h.mean())
        mu1p = float(distorted_source.records.h.mean())
        mu0p = float(distorted_ood.records.h.mean())
        est = correct_rho(rho_prime, mu1p, mu0p)
        bound = rho_t_bound(mu1p, mu0p, len(target), 0.05).bound
        assert abs(est - truth.rho_t) <= bound
