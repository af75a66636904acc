"""Shared probability types, simplex arithmetic and extended (K+1)-class constructions.

Label convention: ID classes are 1..K, the out-of-distribution class is K+1.
Classifier outputs enter only as a ``RecordSet``, which validates whole
columns at once. All types are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

# Ingest tolerance: inputs within this distance of the simplex are renormalized,
# anything further away is rejected.
SIMPLEX_TOL = 1e-9
# Source class probabilities below this make the E-step divisions unreliable.
MIN_CLASS_PROB = 1e-6
# Open-interval clamp for ID-ratio estimates that seed EM divisions.
RHO_EPS = 1e-6


class OslsError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(OslsError, ValueError):
    """Input violates a documented precondition or invariant."""


class DegenerateScorer(OslsError):
    """The ID/OOD scorer cannot identify the quantity being estimated.

    Raised when a ratio-estimator denominator falls below its tolerance,
    e.g. a perfect scorer with mu1 = 1 and mu0 = 0.
    """


class DegenerateSample(OslsError):
    """A sample produced an all-zero posterior normalizer."""

    def __init__(self, index: int, message: str | None = None):
        self.index = int(index)
        super().__init__(message or f"zero posterior normalizer at sample index {index}")


class AmbiguousStationary(OslsError):
    """The stationary-distribution objective has no unique minimizer."""


class IllConditioned(OslsError):
    """A linear system is singular or too ill-conditioned to solve."""


VectorLike = Union[Sequence[float], np.ndarray]


def validate_simplex(v: VectorLike, tol: float = SIMPLEX_TOL) -> bool:
    """True iff every entry >= -tol and the entries sum to 1 within tol."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        return False
    return bool(np.all(arr >= -tol) and abs(float(arr.sum()) - 1.0) <= tol)


def as_simplex(v: VectorLike, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Coerce ``v`` onto the simplex: clip in-tolerance negatives, renormalize.

    Raises ValidationError if ``v`` is not within ``tol`` of the simplex.
    """
    arr = np.asarray(v, dtype=float)
    if not validate_simplex(arr, tol):
        raise ValidationError(f"not a probability vector within tol={tol}: {arr!r}")
    arr = np.clip(arr, 0.0, None)
    out = arr / arr.sum()
    out.flags.writeable = False
    return out


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A point on the (K-1)-probability simplex, K >= 1."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", as_simplex(self.entries))

    @property
    def k(self) -> int:
        return self.entries.size

    def __len__(self) -> int:
        return self.entries.size

    def __getitem__(self, j: int) -> float:
        return float(self.entries[j])

    def __repr__(self) -> str:
        return f"ProbabilityVector({self.entries.tolist()})"


def _as_probability_vector(p: Union[ProbabilityVector, VectorLike]) -> ProbabilityVector:
    return p if isinstance(p, ProbabilityVector) else ProbabilityVector(np.asarray(p, dtype=float))


@dataclass(frozen=True, eq=False)
class ExtendedDistribution:
    """A (K+1)-class distribution [rho*p_1, ..., rho*p_K, 1-rho]."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValidationError("extended distribution needs at least 2 entries")
        object.__setattr__(self, "entries", as_simplex(arr))

    @property
    def k(self) -> int:
        """Number of ID classes (one less than the stored length)."""
        return self.entries.size - 1

    @property
    def rho(self) -> float:
        return 1.0 - float(self.entries[-1])

    def base(self) -> np.ndarray:
        """Recover the ID-class distribution; requires rho > 0."""
        r = self.rho
        if r <= 0.0:
            raise ValidationError("cannot recover base distribution at rho = 0")
        return self.entries[:-1] / r

    def __repr__(self) -> str:
        return f"ExtendedDistribution({self.entries.tolist()})"


@dataclass(frozen=True, eq=False)
class SourceLabelModel:
    """Source ID label distribution c and source ID data ratio rho_s."""

    c: ProbabilityVector
    rho_s: float

    def __post_init__(self):
        c = _as_probability_vector(self.c)
        if np.any(c.entries < MIN_CLASS_PROB):
            raise ValidationError(
                f"source class probabilities must be >= {MIN_CLASS_PROB}; got {c.entries!r}"
            )
        rho = float(self.rho_s)
        if not (0.0 < rho < 1.0):
            raise ValidationError(f"rho_s must lie strictly in (0, 1); got {rho}")
        rho = min(max(rho, RHO_EPS), 1.0 - RHO_EPS)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rho_s", rho)

    @property
    def k(self) -> int:
        return self.c.k

    def extended(self) -> ExtendedDistribution:
        return extend_distribution(self.c, self.rho_s)


@dataclass(frozen=True, eq=False)
class TargetLabelModel:
    """Target ID label distribution pi and target ID data ratio rho_t."""

    pi: ProbabilityVector
    rho_t: float

    def __post_init__(self):
        pi = _as_probability_vector(self.pi)
        rho = float(self.rho_t)
        if not (0.0 <= rho <= 1.0):
            raise ValidationError(f"rho_t must lie in [0, 1]; got {rho}")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "rho_t", rho)

    @property
    def k(self) -> int:
        return self.pi.k

    def extended(self) -> ExtendedDistribution:
        return extend_distribution(self.pi, self.rho_t)


class RecordSet:
    """An immutable column-wise batch of prediction records.

    Stores ``f`` as an (N, K) array, ``h`` as (N,), and optionally ground-truth
    labels ``y`` as (N,) ints in 1..K+1. This is the one in-memory
    representation of classifier outputs: every estimator, the correction and
    the file readers and writers consume or produce it.
    """

    __slots__ = ("f", "h", "y")

    def __init__(self, f: np.ndarray, h: np.ndarray, y: Optional[np.ndarray] = None):
        f = np.atleast_2d(np.asarray(f, dtype=float))
        h = np.asarray(h, dtype=float).ravel()
        if f.shape[0] != h.size:
            raise ValidationError(f"f has {f.shape[0]} rows but h has {h.size} entries")
        if f.shape[0] == 0:
            raise ValidationError("empty record set")
        finite = np.isfinite(f).all(axis=1) & np.isfinite(h)
        if not finite.all():
            raise ValidationError(f"row {int(np.argmin(finite))} has a non-finite value in f or h")
        sums = f.sum(axis=1)
        if np.any(f < -SIMPLEX_TOL) or np.any(np.abs(sums - 1.0) > SIMPLEX_TOL):
            bad = int(np.argmax((np.abs(sums - 1.0) > SIMPLEX_TOL) | (f < -SIMPLEX_TOL).any(axis=1)))
            raise ValidationError(f"row {bad} of f is not a probability vector")
        f = np.clip(f, 0.0, None)
        f = f / f.sum(axis=1, keepdims=True)
        if np.any(h < -SIMPLEX_TOL) or np.any(h > 1.0 + SIMPLEX_TOL):
            raise ValidationError("h entries must lie in [0, 1]")
        h = np.clip(h, 0.0, 1.0)
        if y is not None:
            y = np.asarray(y)
            if y.shape != h.shape:
                raise ValidationError("y must have one entry per record")
            bad = (y < 1) | (y > f.shape[1] + 1)
            if y.dtype.kind == "f":
                bad |= y != np.floor(y)
            if bad.any():
                raise ValidationError(
                    f"label {y[np.argmax(bad)]} at row {int(np.argmax(bad))} is not an "
                    f"integer in 1..{f.shape[1] + 1}"
                )
            y = y.astype(np.int64)
            y.flags.writeable = False
        f.flags.writeable = False
        h.flags.writeable = False
        self.f = f
        self.h = h
        self.y = y

    @property
    def k(self) -> int:
        return self.f.shape[1]

    def extended_f(self) -> np.ndarray:
        """The (N, K+1) matrix of combined outputs [h*f, 1-h]."""
        return np.concatenate([self.f * self.h[:, None], (1.0 - self.h)[:, None]], axis=1)

    def with_h(self, h: np.ndarray) -> "RecordSet":
        return RecordSet(self.f, h, self.y)

    def take(self, idx: np.ndarray) -> "RecordSet":
        return RecordSet(self.f[idx], self.h[idx], None if self.y is None else self.y[idx])

    def __len__(self) -> int:
        return self.h.size


def extend_distribution(base: Union[ProbabilityVector, VectorLike], rho: float) -> ExtendedDistribution:
    """Combine an ID distribution and an ID ratio into one (K+1)-class vector."""
    base = _as_probability_vector(base)
    rho = float(rho)
    if not (0.0 <= rho <= 1.0):
        raise ValidationError(f"rho must lie in [0, 1]; got {rho}")
    entries = np.concatenate([rho * base.entries, [1.0 - rho]])
    return ExtendedDistribution(entries)
