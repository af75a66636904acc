"""Closed-set label shift estimators used as comparison points.

MLLS fits the target label distribution by EM on classifier posteriors; MAPLS
adds a Dirichlet prior to the M-step. The confusion-matrix estimator solves
the linear system relating predicted-label frequencies across domains (hard
argmax predictions, joint-frequency confusion matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import core
from .core import (
    SIMPLEX_TOL,
    IllConditioned,
    ProbabilityVector,
    ValidationError,
    _as_probability_vector,
    normalized_rows,
    positive_prior,
    row_blocks,
)
from .em import EmConfig, EmTrace, fit, flush_subnormals

_COND_LIMIT = 1e8

ProbsLike = Union[np.ndarray, Sequence[Sequence[float]]]


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Joint frequencies p(predicted = i, true = j) from a labeled hold-out."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("confusion matrix must be square")
        if not (np.all(arr >= 0.0) and abs(float(arr.sum()) - 1.0) <= SIMPLEX_TOL):
            raise ValidationError("confusion entries must be >= 0 and sum to 1")
        arr = arr / arr.sum()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_labels(cls, predicted: np.ndarray, true: np.ndarray, k: int) -> "ConfusionMatrix":
        """Build joint frequencies from 1-based predicted and true labels."""
        predicted = np.asarray(predicted, dtype=np.int64)
        true = np.asarray(true, dtype=np.int64)
        if predicted.shape != true.shape or predicted.size == 0:
            raise ValidationError("predicted and true labels must be equal-length, non-empty")
        if np.any(predicted < 1) or np.any(predicted > k) or np.any(true < 1) or np.any(true > k):
            raise ValidationError(f"labels must lie in 1..{k}")
        counts = np.zeros((k, k))
        np.add.at(counts, (predicted - 1, true - 1), 1.0)
        return cls(counts / predicted.size)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def class_marginals(self) -> np.ndarray:
        """Hold-out true-label frequencies (column sums)."""
        return self.entries.sum(axis=0)


def _prob_rows(target_f: ProbsLike) -> np.ndarray:
    rows = np.asarray(target_f, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValidationError("target posteriors must form a non-empty (N, K) matrix")
    return rows


def _closed_set_fit(target_f: ProbsLike, c, config: EmConfig) -> EmTrace:
    rows = _prob_rows(target_f)
    w = normalized_rows(rows, "the posteriors", out=np.empty(rows.shape, order="F"))
    c = positive_prior(c, w.shape[1])
    w /= c
    return fit(flush_subnormals(w), c, None, config)


def mlls(
    target_f: ProbsLike,
    c,
    max_iters: int = EmConfig.max_iters,
    *,
    tol: float = EmConfig.tol,
) -> EmTrace:
    """Maximum-likelihood target label distribution from classifier posteriors.

    EM stops once one map moves pi by less than ``tol``, with SQUAREM
    acceleration, or after ``max_iters`` maps; ``tol=0.0`` runs exactly
    ``max_iters`` plain EM updates. The estimate is the trace's ``pi_final``.
    """
    return _closed_set_fit(target_f, c, EmConfig(max_iters, tol))


def mapls(
    target_f: ProbsLike,
    c,
    alpha: Union[Sequence[float], np.ndarray],
    max_iters: int = EmConfig.max_iters,
    *,
    tol: float = EmConfig.tol,
) -> EmTrace:
    """MAP variant of mlls with a per-class Dirichlet prior (alpha >= 1); same stopping rule."""
    return _closed_set_fit(target_f, c, EmConfig(max_iters, tol, alpha_in=alpha))


def _cond_1(a: np.ndarray) -> float:
    """1-norm condition number ||a||_1 ||a^-1||_1."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise IllConditioned("singular confusion matrix") from None
    return float(np.abs(a).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())


def bbse(confusion: ConfusionMatrix, target_pred_freq) -> ProbabilityVector:
    """Target label distribution from the confusion-matrix linear system.

    Solves C w = q for the class importance weights w (q being target
    predicted-label frequencies), clips negative weights to zero, and maps
    back to a distribution via pi_j proportional to w_j * c_j.
    """
    q = _as_probability_vector(target_pred_freq).entries
    if q.size != confusion.k:
        raise ValidationError(f"target frequencies have {q.size} entries, expected {confusion.k}")
    cm = confusion.entries
    cond = _cond_1(cm)
    if not cond < _COND_LIMIT:  # also rejects a NaN condition number
        raise IllConditioned(f"confusion matrix condition number {cond:.3g} >= {_COND_LIMIT:.0e}")
    w = np.linalg.solve(cm, q)
    pi_unnorm = np.maximum(w, 0.0) * confusion.class_marginals()
    total = pi_unnorm.sum()
    if total <= 0.0:
        raise IllConditioned("all importance weights were non-positive")
    return ProbabilityVector(pi_unnorm / total)


def predicted_class_frequencies(f_rows: ProbsLike, k: Optional[int] = None) -> ProbabilityVector:
    """Empirical frequencies of the argmax class over a set of posteriors."""
    labels = argmax_labels(f_rows)
    counts = np.bincount(labels - 1, minlength=k or np.shape(f_rows)[1]).astype(float)
    return ProbabilityVector(counts / counts.sum())


def argmax_labels(f_rows: ProbsLike) -> np.ndarray:
    """1-based argmax labels, ties broken toward the smallest index.

    Each block of rows is checked, clipped and normalized by ``normalized_rows``,
    to the bits of the whole matrix's, so the same entries tie.
    """
    rows = _prob_rows(f_rows)
    labels = np.empty(rows.shape[0], dtype=np.int64)
    for i, j in row_blocks(*rows.shape, core.BLOCK_CELLS):
        block = normalized_rows(rows[i:j], "the posteriors", start=i)
        np.argmax(block, axis=1, out=labels[i:j])
    labels += 1
    return labels
