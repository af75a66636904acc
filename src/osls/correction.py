"""Target-adapted (K+1)-class posteriors built by reweighting classifier outputs.

Each row's combined output [h*f, 1-h] is multiplied by the per-class ratio of
target to source extended probabilities and renormalized. The ratio vector
depends only on the estimates, so the correction computes it once for the
whole record set.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .core import (
    DegenerateSample,
    ExtendedDistribution,
    ProbabilityVector,
    RecordSet,
    ValidationError,
    _as_probability_vector,
)


def _ratio_vector(c_ext: ExtendedDistribution, pi_ext: ExtendedDistribution) -> np.ndarray:
    if c_ext.entries.size != pi_ext.entries.size:
        raise ValidationError("extended distributions must have matching length")
    if np.any(c_ext.entries <= 0.0):
        raise ValidationError("source extended distribution must be strictly positive")
    return pi_ext.entries / c_ext.entries


def correct_posterior_closed_set(f, c, pi) -> ProbabilityVector:
    """The same reweighting restricted to the K ID classes, for one posterior."""
    f = _as_probability_vector(f).entries
    c = _as_probability_vector(c).entries
    pi = _as_probability_vector(pi).entries
    if np.any(c <= 0.0):
        raise ValidationError("c must be strictly positive")
    unnorm = (pi / c) * f
    total = unnorm.sum()
    if total <= 0.0:
        raise DegenerateSample(0, "zero normalizer in closed-set correction")
    return ProbabilityVector(unnorm / total)


def correct_records(
    records: RecordSet,
    c_ext: ExtendedDistribution,
    pi_ext: ExtendedDistribution,
) -> Tuple[np.ndarray, np.ndarray]:
    """Correct a whole record set; returns the (N, K+1) posteriors and labels.

    Labels are the 1-based argmax of each posterior row, ties broken toward
    the smallest index, so K+1 means OOD.
    """
    ratios = _ratio_vector(c_ext, pi_ext)
    if records.k + 1 != ratios.size:
        raise ValidationError(
            f"records have K={records.k} but distributions have K={ratios.size - 1}"
        )
    posteriors = records.extended_f()
    posteriors *= ratios
    totals = posteriors.sum(axis=1)
    if np.any(totals <= 0.0):
        raise DegenerateSample(int(np.argmax(totals <= 0.0)))
    posteriors /= totals[:, None]
    labels = posteriors.argmax(axis=1) + 1
    return posteriors, labels
