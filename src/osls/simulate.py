"""Synthetic open-set scenarios with exact Bayes-posterior classifier outputs.

Each scenario is a Gaussian mixture over K ID classes plus one OOD class.
Source and target domains share one set of class-conditional components and
differ only in priors, so the label-shift premise holds by construction. The
simulated classifier outputs f and h are the exact posteriors under the
source priors (oracle mode); a temperature above 1 softens them on the
log-odds scale to emulate mis-calibration. Each draw is a ``LabeledDataset``:
a labeled ``RecordSet`` plus the feature rows that produced it.

Random streams are split per purpose from the root seed so that, e.g.,
drawing more OOD reference samples never perturbs the target data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    BLOCK_CELLS,
    ProbabilityVector,
    RecordSet,
    SourceLabelModel,
    TargetLabelModel,
    ValidationError,
    numbers,
    real_in,
    reals_in,
    whole_number,
)

# Purpose offsets for per-stream seeding.
_STREAM_SHIFT = 0
_STREAM_SOURCE_LABELS = 1
_STREAM_SOURCE_FEATURES = 2
_STREAM_TARGET_LABELS = 3
_STREAM_TARGET_FEATURES = 4
_STREAM_OODREF_FEATURES = 5
_STREAM_PSEUDO_NOISE = 6
_STREAM_SUBSAMPLE = 7


def _mask_seed(seed: int) -> int:
    return int(seed) & 0xFFFF_FFFF_FFFF_FFFF


def _stream(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([_mask_seed(seed), purpose])


def dirichlet_shift(k: int, alpha: float, seed) -> ProbabilityVector:
    """One draw from the symmetric Dirichlet(alpha) via normalized Gamma draws."""
    k = whole_number("k", k, 1)
    alpha = real_in("alpha", alpha, 0, strict=True)
    if k == 1:
        return ProbabilityVector([1.0])
    rng = np.random.default_rng(seed)
    for _ in range(100):
        draws = rng.gamma(alpha, 1.0, size=k)
        if draws.sum() > 0.0:
            return ProbabilityVector(draws / draws.sum())
    return ProbabilityVector(np.full(k, 1.0 / k))


def ordered_lt_shift(k: int, imbalance: float, order: str = "forward") -> ProbabilityVector:
    """Long-tailed distribution pi_j proportional to imbalance^(-(j-1)/(K-1))."""
    k = whole_number("k", k, 1)
    spec = ShiftSpec("ordered_lt", imbalance=imbalance, order=order)  # the shift's rules
    if k == 1:
        return ProbabilityVector([1.0])
    weights = spec.imbalance ** (-np.arange(k) / (k - 1.0))
    if spec.order == "backward":
        weights = weights[::-1]
    return ProbabilityVector(weights / weights.sum())


@dataclass(frozen=True, eq=False)
class ShiftSpec:
    """How the target ID label distribution is derived from the source one."""

    kind: str
    alpha: float = 1.0
    imbalance: float = 1.0
    order: str = "forward"

    def __post_init__(self):
        if self.kind not in ("none", "dirichlet", "ordered_lt"):
            raise ValidationError(f"unknown shift kind {self.kind!r}")
        if self.order not in ("forward", "backward"):
            raise ValidationError(f"order must be forward or backward; got {self.order!r}")
        if self.kind == "dirichlet":
            object.__setattr__(self, "alpha", real_in("alpha", self.alpha, 0, strict=True))
        if self.kind == "ordered_lt":
            object.__setattr__(self, "imbalance", real_in("imbalance", self.imbalance, 1))

    @classmethod
    def none(cls) -> "ShiftSpec":
        return cls(kind="none")

    @classmethod
    def dirichlet(cls, alpha: float) -> "ShiftSpec":
        return cls(kind="dirichlet", alpha=alpha)

    @classmethod
    def ordered_lt(cls, imbalance: float, order: str = "forward") -> "ShiftSpec":
        return cls(kind="ordered_lt", imbalance=imbalance, order=order)

    @classmethod
    def parse(cls, text: str) -> "ShiftSpec":
        """Parse "none", "dirichlet[:alpha]" or "lt[:imbalance[:order]]", as "lt:100:forward"."""
        parts = [p.strip() for p in str(text).split(":")]
        kind = parts[0].lower()
        fields = {"none": 0, "dirichlet": 1, "lt": 2, "ordered_lt": 2}.get(kind, -1)
        text_number = parts[1] if len(parts) > 1 else "1"
        try:
            number = float(text_number)
        except ValueError:
            fields = -1
        if "_" in text_number:  # float() reads digit-group underscores; no spec number holds one
            fields = -1
        if len(parts) > fields + 1:
            raise ValidationError(f"cannot parse shift spec {text!r}")
        if kind == "none":
            return cls.none()
        if kind == "dirichlet":
            return cls.dirichlet(number)
        return cls.ordered_lt(number, parts[2].lower() if len(parts) > 2 else "forward")

    def key(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "dirichlet":
            return f"dirichlet:{self.alpha:g}"
        return f"lt:{self.imbalance:g}:{self.order}"

    def apply(self, c: ProbabilityVector, seed) -> ProbabilityVector:
        if self.kind == "none":
            return c
        if self.kind == "dirichlet":
            return dirichlet_shift(c.k, self.alpha, seed)
        return ordered_lt_shift(c.k, self.imbalance, self.order)


class GaussianComponents:
    """Isotropic Gaussian class-conditionals shared by source and target."""

    def __init__(self, means: np.ndarray, scales: np.ndarray):
        means = np.atleast_2d(reals_in("means", means, -math.inf))
        scales = reals_in("scales", scales, 0, strict=True).ravel()
        if means.shape[0] != scales.size:
            raise ValidationError(f"scales must have one entry per row of means; "
                                  f"got {scales.size} for {means.shape[0]}")
        # np.allclose(means[i], means[j]) for every pair at once: on finite
        # values it is |m_i - m_j| <= 1e-8 + 1e-5 * |m_j| on every coordinate.
        close = np.all(
            np.abs(means[:, None, :] - means[None, :, :]) <= 1e-8 + 1e-5 * np.abs(means)[None],
            axis=2,
        )
        pairs = np.argwhere(np.triu(close, 1))
        if pairs.size:
            i, j = pairs[0]
            raise ValidationError(f"component means {i} and {j} coincide")
        means = means.copy()
        scales = scales.copy()
        means.flags.writeable = False
        scales.flags.writeable = False
        self.means = means
        self.scales = scales

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        """(N, n_components) log densities (isotropic normal, constants kept)."""
        x = np.atleast_2d(numbers("x", x))
        d = self.dim
        if d < 8:
            # np.sum adds fewer than 8 terms left to right, so summing one
            # coordinate at a time gives its bits without an (N, K+1, d) array.
            sq = np.subtract.outer(x[:, 0], self.means[:, 0])
            sq *= sq
            for c in range(1, d):
                term = np.subtract.outer(x[:, c], self.means[:, c])
                term *= term
                sq += term
        else:
            # Row blocks of the (N, K+1, d) squared differences: each
            # (row, component) sum over d is the same pairwise reduction.
            sq = np.empty((x.shape[0], self.n_components))
            rows = max(1, BLOCK_CELLS // (self.n_components * d))
            for start in range(0, x.shape[0], rows):
                diff = x[start : start + rows, None, :] - self.means[None, :, :]
                diff *= diff
                np.sum(diff, axis=2, out=sq[start : start + rows])
        sq *= -0.5
        sq /= (self.scales**2)[None, :]
        sq -= d * np.log(self.scales)[None, :]
        sq -= 0.5 * d * np.log(2.0 * np.pi)
        return sq

    def sample(self, labels0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Features for 0-based component labels."""
        noise = rng.standard_normal((labels0.size, self.dim))
        return self.means[labels0] + self.scales[labels0, None] * noise


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Full description of one synthetic open-set scenario.

    ``class_means`` and ``class_scales`` cover K+1 components, the last being
    the OOD class. ``r`` is the target OOD-to-ID sample ratio, so the target
    ID data ratio is 1 / (1 + r). ``temperature`` = 1 keeps the simulated
    classifier outputs exactly calibrated. ``components`` is built from the
    means and scales once, when the config is.
    """

    k: int
    class_means: np.ndarray
    class_scales: np.ndarray
    c: ProbabilityVector
    rho_s: float
    n_source: int
    n_target: int
    n_ood_ref: int
    shift: ShiftSpec
    r: float
    seed: int
    feature_dim: int = 2
    temperature: float = 1.0
    components: GaussianComponents = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("k", "n_source", "n_target", "n_ood_ref"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), 1))
        object.__setattr__(self, "seed", whole_number("seed", self.seed))
        for name in ("r", "temperature"):
            object.__setattr__(self, name, real_in(name, getattr(self, name), 0, strict=True))
        means = np.atleast_2d(reals_in("class_means", self.class_means, -math.inf))
        scales = reals_in("class_scales", self.class_scales, 0, strict=True).ravel()
        if means.shape != (self.k + 1, self.feature_dim):
            raise ValidationError(
                f"class_means must have shape ({self.k + 1}, {self.feature_dim}); got {means.shape}"
            )
        if scales.size == 1:
            scales = np.full(self.k + 1, float(scales[0]))
        if scales.size != self.k + 1:
            raise ValidationError(f"class_scales must have {self.k + 1} entries")
        # The estimators' rules for the source prior and ratio.
        c = SourceLabelModel(self.c, self.rho_s).c
        if c.k != self.k:
            raise ValidationError(f"c must have {self.k} entries")
        # Means must be pairwise distinct for the posteriors to be informative.
        components = GaussianComponents(means, scales)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "class_means", components.means)
        object.__setattr__(self, "class_scales", components.scales)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rho_s", float(self.rho_s))

    @property
    def rho_t(self) -> float:
        return 1.0 / (1.0 + self.r)


def ring_config(
    k: int,
    *,
    radius: float = 3.0,
    scale: float = 1.0,
    ood_scale: Optional[float] = None,
    class_means: Optional[np.ndarray] = None,
    class_scales: Optional[Sequence[float]] = None,
    c: Optional[Sequence[float]] = None,
    rho_s: float = 0.7,
    n_source: int = 10_000,
    n_target: int = 10_000,
    n_ood_ref: int = 5_000,
    shift: Optional[ShiftSpec] = None,
    r: float = 1.0,
    seed: int = 0,
    feature_dim: int = 2,
    temperature: float = 1.0,
) -> ScenarioConfig:
    """Standard layout: ID means on a circle of given radius, OOD at the origin.

    Explicit ``class_means`` (K+1 rows, OOD last) replace the ring's and set the
    feature dimension; explicit ``class_scales`` replace those ``scale`` and
    ``ood_scale`` give. A parameter is checked only where it is used.
    """
    k = whole_number("k", k, 1)
    if class_means is None:
        feature_dim = whole_number("feature_dim", feature_dim, 2)
        radius = real_in("radius", radius, -math.inf)
        angles = 2.0 * np.pi * np.arange(k) / k
        class_means = np.zeros((k + 1, feature_dim))
        class_means[:k, 0] = radius * np.cos(angles)
        class_means[:k, 1] = radius * np.sin(angles)
    else:
        class_means = np.atleast_2d(reals_in("class_means", class_means, -math.inf))
        feature_dim = class_means.shape[1]
    if class_scales is None:
        scale = real_in("scale", scale, 0, strict=True)
        class_scales = np.full(k + 1, scale)
        if ood_scale is not None:
            class_scales[k] = real_in("ood_scale", ood_scale, 0, strict=True)
    return ScenarioConfig(
        k=k,
        class_means=class_means,
        class_scales=class_scales,
        c=np.full(k, 1.0 / k) if c is None else c,
        rho_s=rho_s,
        n_source=n_source,
        n_target=n_target,
        n_ood_ref=n_ood_ref,
        shift=shift or ShiftSpec.none(),
        r=r,
        seed=seed,
        feature_dim=feature_dim,
        temperature=temperature,
    )


class LabeledDataset:
    """A record set with ground-truth labels and the features that produced it.

    Features are kept beside (never inside) the records: they exist only so
    the pseudo-OOD generator can blend noise into raw inputs.
    """

    __slots__ = ("records", "features")

    def __init__(self, records: RecordSet, features: np.ndarray):
        if records.y is None:
            raise ValidationError("labeled dataset needs ground-truth labels")
        features = np.atleast_2d(reals_in("features", features, -math.inf))
        if features.shape[0] != len(records):
            raise ValidationError(f"features must have one row per record; "
                                  f"got {features.shape[0]} for {len(records)}")
        self._hold(records, features.copy())

    @classmethod
    def _adopt(cls, records: RecordSet, features: np.ndarray) -> "LabeledDataset":
        """A dataset that holds the caller's fresh (N, d) float64 features, not a copy."""
        return cls.__new__(cls)._hold(records, features)

    def _hold(self, records: RecordSet, features: np.ndarray) -> "LabeledDataset":
        features.flags.writeable = False
        self.records = records
        self.features = features
        return self

    @property
    def y(self) -> np.ndarray:
        return self.records.y

    @property
    def k(self) -> int:
        return self.records.k

    def __len__(self) -> int:
        return len(self.records)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Scenario:
    """A realized scenario: shared class-conditionals, truth, and samplers."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.components = config.components
        # Structural embodiment of the shared-conditionals premise: both
        # domains sample from the very same component object.
        self.source_components = self.components
        self.target_components = self.components
        pi = config.shift.apply(
            config.c, [_mask_seed(config.seed), _STREAM_SHIFT]
        )
        self.truth = TargetLabelModel(pi, config.rho_t)

    @property
    def k(self) -> int:
        return self.config.k

    def oracle_scores(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Exact posteriors (f, h) under the source priors, temperature applied."""
        x = np.atleast_2d(numbers("x", x))
        f = np.empty((x.shape[0], self.k))
        return f, self._score(x, "given features", f)

    def _score(self, x: np.ndarray, sample: str, f: Optional[np.ndarray] = None) -> np.ndarray:
        """h for ``x``'s rows, and their f written into ``f`` if given, a row block at a time.

        Every step works row by row on C-order blocks, so each entry has the bits
        of the whole-array computation; no array as large as f is made.
        """
        cfg = self.config
        k, tau, n = cfg.k, cfg.temperature, x.shape[0]
        log_prior = np.concatenate(
            [np.log(cfg.rho_s) + np.log(cfg.c.entries), [np.log(1.0 - cfg.rho_s)]]
        )
        rows = max(1, BLOCK_CELLS // (k + 1))
        block = np.empty((min(rows, n), k)) if f is None else None
        h = np.empty(n)
        # Overflow in a log density is reported below, as the one error it causes.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for start in range(0, n, rows):
                stop = min(start + rows, n)
                joint = self.components.log_pdf(x[start:stop])
                joint += log_prior
                joint_id = joint[:, :k]
                m = joint_id.max(axis=1, keepdims=True)
                # Only here can f or h turn non-finite: when no ID class has a
                # finite log density, or the OOD class's is NaN, because the
                # scales' squares or the squared distances overflowed or underflowed.
                if not np.isfinite(m).all() or np.isnan(joint[:, k]).any():
                    raise ValidationError(
                        "class_means and class_scales are too extreme for float64: "
                        f"the log densities of the {sample} are not finite"
                    )
                ef = block[: stop - start] if f is None else f[start:stop]
                np.subtract(joint_id, m, out=ef)
                np.exp(ef, out=ef)
                total = ef.sum(axis=1)
                lse_id = m[:, 0] + np.log(total)
                if tau != 1.0:
                    np.subtract(joint_id, m, out=ef)
                    ef /= tau
                    np.exp(ef, out=ef)
                    total = ef.sum(axis=1)
                ef /= total[:, None]
                h[start:stop] = _sigmoid((lse_id - joint[:, k]) / tau)
        return h

    def _dataset(self, labels0: np.ndarray, rng: np.random.Generator,
                 sample: str) -> LabeledDataset:
        x = self.components.sample(labels0, rng)
        f = np.empty((x.shape[0], self.k))
        h = self._score(x, f"{sample} sample", f)
        return LabeledDataset._adopt(RecordSet._adopt(f, h, labels0 + 1), x)

    def sample_source(self) -> LabeledDataset:
        """ID-only labeled source data with labels drawn from c."""
        cfg = self.config
        rng_labels = _stream(cfg.seed, _STREAM_SOURCE_LABELS)
        labels0 = rng_labels.choice(cfg.k, size=cfg.n_source, p=cfg.c.entries)
        return self._dataset(labels0, _stream(cfg.seed, _STREAM_SOURCE_FEATURES), "source")

    def sample_target(self) -> LabeledDataset:
        """Unlabeled-by-convention target mixture; truth labels kept for scoring."""
        cfg = self.config
        rng_labels = _stream(cfg.seed, _STREAM_TARGET_LABELS)
        is_id = rng_labels.random(cfg.n_target) < self.truth.rho_t
        id_labels = rng_labels.choice(cfg.k, size=cfg.n_target, p=self.truth.pi.entries)
        labels0 = np.where(is_id, id_labels, cfg.k)
        return self._dataset(labels0, _stream(cfg.seed, _STREAM_TARGET_FEATURES), "target")

    def sample_target_exact_ratio(self) -> LabeledDataset:
        """Target draw with the OOD count pinned to round(r * n_ID).

        ID labels are still i.i.d. from pi; only the ID/OOD split is exact,
        mirroring the protocol of subsampling OOD data to a prescribed ratio.
        """
        cfg = self.config
        rng_labels = _stream(cfg.seed, _STREAM_TARGET_LABELS)
        n_id = int(np.rint(cfg.n_target * self.truth.rho_t))
        n_ood = int(np.rint(cfg.r * n_id))
        if n_id + n_ood < 1:
            raise ValidationError("target size rounds to zero samples")
        id_labels = rng_labels.choice(cfg.k, size=n_id, p=self.truth.pi.entries)
        labels0 = np.concatenate([id_labels, np.full(n_ood, cfg.k, dtype=np.int64)])
        labels0 = labels0[rng_labels.permutation(labels0.size)]
        return self._dataset(labels0, _stream(cfg.seed, _STREAM_TARGET_FEATURES), "target")

    def sample_ood_ref(self) -> LabeledDataset:
        """Reference draws from the OOD class-conditional."""
        cfg = self.config
        labels0 = np.full(cfg.n_ood_ref, cfg.k, dtype=np.int64)
        return self._dataset(labels0, _stream(cfg.seed, _STREAM_OODREF_FEATURES),
                             "OOD reference")

    def pseudo_ood_scores(self, features: np.ndarray, gamma: float) -> np.ndarray:
        """ID scores of noise-blended copies of the given features."""
        blended = gen_pseudo_ood(
            features, gamma, [_mask_seed(self.config.seed), _STREAM_PSEUDO_NOISE]
        )
        return self._score(blended, "pseudo-OOD features")


def make_scenario(
    config: ScenarioConfig,
) -> Tuple[LabeledDataset, LabeledDataset, LabeledDataset, TargetLabelModel]:
    """Generate (source, target, ood_ref, truth) for one scenario config."""
    scenario = Scenario(config)
    return (
        scenario.sample_source(),
        scenario.sample_target(),
        scenario.sample_ood_ref(),
        scenario.truth,
    )


def gen_pseudo_ood(source_features: np.ndarray, gamma: float, seed) -> np.ndarray:
    """Blend standard-normal noise into features: (1-gamma)*x + gamma*eps.

    eps is drawn fresh per sample and per coordinate.
    """
    gamma = real_in("gamma", gamma, 0, 1)
    x = np.atleast_2d(reals_in("source_features", source_features, -math.inf))
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(x.shape)
    return (1.0 - gamma) * x + gamma * eps


DatasetLike = Union[LabeledDataset, RecordSet]


def _coerce_labeled(target: DatasetLike) -> Tuple[RecordSet, Optional[np.ndarray]]:
    if isinstance(target, LabeledDataset):
        return target.records, target.features
    if isinstance(target, RecordSet):
        if target.y is None:
            raise ValidationError("record set has no labels")
        return target, None
    raise TypeError(f"expected a LabeledDataset or a RecordSet, got {type(target).__name__}")


def _rebuild(records: RecordSet, features: Optional[np.ndarray]):
    if features is None:
        return records
    return LabeledDataset(records, features)


def subsample_to_ratio(target: DatasetLike, r: float, seed) -> Tuple[DatasetLike, bool]:
    """Keep all ID samples and subsample OOD ones to round(r * n_ID).

    Returns the subsampled data (original order preserved) and a flag that is
    True when fewer OOD samples were available than requested.
    """
    r = real_in("r", r, 0, strict=True)
    records, features = _coerce_labeled(target)
    k = records.k
    id_idx = np.flatnonzero(records.y <= k)
    ood_idx = np.flatnonzero(records.y == k + 1)
    if id_idx.size == 0:
        raise ValidationError("target contains no ID samples")
    n_keep = int(np.rint(r * id_idx.size))
    capped = n_keep > ood_idx.size
    if capped:
        chosen = ood_idx
    else:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(ood_idx, size=n_keep, replace=False)
    keep = np.sort(np.concatenate([id_idx, chosen]))
    out = records.take(keep)
    return _rebuild(out, None if features is None else features[keep]), capped


def distort_scorer(samples: DatasetLike, a: float, b: float) -> DatasetLike:
    """Replace each h by a + b*h, an affine scorer mis-specification.

    The map must keep every score inside [0, 1]; affinity preserves equal
    per-ID-class mean responses whenever the original scorer had them.
    """
    records, features = _coerce_labeled(samples)
    a, b = real_in("a", a, -math.inf), real_in("b", b, -math.inf)
    new_h = reals_in("a + b*h", a + b * records.h, 0, 1)
    return _rebuild(records.with_h(new_h), features)
