"""Evaluation metrics: importance-weight MSE, top-1 accuracy, ECE, ratio error."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import MIN_CLASS_PROB, ValidationError, _as_probability_vector, report_dict


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Per-run metric bundle; fields are None when not computable from inputs."""

    w_mse: Optional[float] = None
    top1: Optional[float] = None
    rho_t_abs_err: Optional[float] = None
    rho_t_star_abs_err: Optional[float] = None
    ece: Optional[float] = None

    def to_dict(self) -> dict:
        return report_dict(self)


def w_mse(pi_hat, pi_true, c) -> float:
    """Mean squared error between target/source class-ratio vectors pi/c."""
    pi_hat = _as_probability_vector(pi_hat).entries
    pi_true = _as_probability_vector(pi_true).entries
    c = _as_probability_vector(c).entries
    if not (pi_hat.size == pi_true.size == c.size):
        raise ValidationError("pi_hat, pi_true and c must have matching length")
    if np.any(c < MIN_CLASS_PROB):
        raise ValidationError(f"c entries must be >= {MIN_CLASS_PROB}")
    w_true = pi_true / c
    w_hat = pi_hat / c
    return float(np.mean((w_true - w_hat) ** 2))


def top1_accuracy(
    predictions: Union[Sequence[int], np.ndarray],
    truths: Union[Sequence[int], np.ndarray],
) -> float:
    """Fraction of exact label matches."""
    pred = np.asarray(predictions).ravel()
    true = np.asarray(truths).ravel()
    if pred.size != true.size:
        raise ValidationError(f"length mismatch: {pred.size} predictions vs {true.size} truths")
    if pred.size == 0:
        raise ValidationError("empty label lists")
    return float(np.mean(pred == true))


def ece(
    confidences: Union[Sequence[float], np.ndarray],
    correct: Union[Sequence[bool], np.ndarray],
    n_bins: int = 15,
) -> float:
    """Expected calibration error with equal-width confidence bins on [0, 1].

    ``correct[i]`` says whether the prediction made with ``confidences[i]``
    was right. Bin boundaries are assigned to the lower bin (1.0 therefore
    lands in the top bin); empty bins contribute nothing.
    """
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    probs = np.asarray(confidences, dtype=float).ravel()
    hits = np.asarray(correct, dtype=bool).ravel().astype(float)
    if probs.size != hits.size:
        raise ValidationError(f"length mismatch: {probs.size} confidences vs {hits.size} outcomes")
    if probs.size == 0:
        raise ValidationError("empty confidence list")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValidationError("confidences must lie in [0, 1]")
    bins = np.clip(np.ceil(probs * n_bins).astype(int) - 1, 0, n_bins - 1)
    counts = np.bincount(bins, minlength=n_bins).astype(float)
    conf_sums = np.bincount(bins, weights=probs, minlength=n_bins)
    acc_sums = np.bincount(bins, weights=hits, minlength=n_bins)
    occupied = counts > 0
    gaps = np.abs(acc_sums[occupied] / counts[occupied] - conf_sums[occupied] / counts[occupied])
    return float(np.sum(counts[occupied] / probs.size * gaps))


def rho_abs_error(rho_hat: float, rho_true: float) -> float:
    """Absolute error between two ID-ratio values in [0, 1]."""
    for name, v in (("rho_hat", rho_hat), ("rho_true", rho_true)):
        if not 0.0 <= float(v) <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1]; got {v}")
    return abs(float(rho_hat) - float(rho_true))
