"""Shared probability types, simplex arithmetic and extended (K+1)-class constructions.

Label convention: ID classes are 1..K, the out-of-distribution class is K+1.
Classifier outputs enter only as a ``RecordSet``, which validates whole
columns at once. All types are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

# Ingest tolerance: inputs within this distance of the simplex are renormalized,
# anything further away is rejected.
SIMPLEX_TOL = 1e-9
# Source class probabilities below this make the E-step divisions unreliable.
MIN_CLASS_PROB = 1e-6
# Open-interval clamp for ID-ratio estimates that seed EM divisions.
RHO_EPS = 1e-6
# Entries per row block wherever a pass over an N-row matrix works a block of
# rows at a time, bounding each block's masks, copies and temporaries.
BLOCK_CELLS = 1 << 16


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


def real_in(name: str, value, low: float, high: float = math.inf, strict: bool = False) -> float:
    """``float(value)`` if it lies between ``low`` and ``high``, ends included unless ``strict``.

    An infinite end is always open and NaN lies in no interval, so the value is
    finite. Otherwise ValidationError names the parameter, the range and the
    value: "delta must lie in (0, 1); got 0.0", "T must be a finite number >= 1; got nan".
    """
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if (low < x < high if strict else low <= x <= high) and math.isfinite(x):
        return x
    if math.isinf(high):
        rule = f"be a finite number {'>' if strict else '>='} {low:g}"
    else:
        rule = f"lie in {'(' if strict else '['}{low:g}, {high:g}{')' if strict else ']'}"
    raise ValidationError(f"{name} must {rule}; got {value}")


def whole_number(name: str, value, least: Optional[int] = None) -> int:
    """``operator.index(value)``: an int or a numpy integer, never a float, NaN or inf,
    and at least ``least`` when that is given; otherwise ValidationError names the
    parameter and the value: "k must be a whole number >= 1; got 2.5"."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or (least is not None and n < least):
        rule = "" if least is None else f" >= {least}"
        raise ValidationError(f"{name} must be a whole number{rule}; got {value}")
    return n


def on_simplex(rows: np.ndarray, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Mask over the last axis: every entry >= -tol and the entries sum to 1 within tol.

    A NaN fails the sum test. The per-row entry test runs only when some entry
    is below -tol, since a reduction along a short last axis is slow.
    """
    ok = np.abs(rows.sum(axis=-1) - 1.0) <= tol
    if (rows < -tol).any():
        ok &= (rows >= -tol).all(axis=-1)
    return ok


def row_blocks(n: int, width: int, cells: int) -> list:
    """(start, stop) pairs that cover ``n`` rows of ``width`` entries, about ``cells`` a block.

    A block of two or more rows is laid out as the whole matrix is, so numpy adds
    each row's entries in the same order. A lone row is summed as a C-order row
    whatever the layout, so a last block of one row joins the block before it.
    """
    starts = list(range(0, n, max(2, cells // max(width, 1))))
    if n > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _require_rows(ok: np.ndarray, what: str, start: int = 0) -> None:
    """ValidationError "row <i> <what>" for the first row ``i`` where ``ok`` is False."""
    if not ok.all():
        raise ValidationError(f"row {start + int(np.argmin(ok))} {what}")


def normalized_rows(rows: np.ndarray, what: str, out: Optional[np.ndarray] = None,
                    start: int = 0) -> np.ndarray:
    """``rows`` clipped at 0 and divided by their row sums, written to ``out``: ``rows``
    itself, another array of their shape, or None for a new one.

    A block of rows at a time, each checked before it is written: ValidationError
    "row <start + i> of <what> is not a probability vector" names the first row
    off the simplex within ``SIMPLEX_TOL``. Each row sum is taken over a clipped
    block laid out as ``rows`` is, to the bits of ``np.clip(rows, 0, None).sum(axis=1)``.
    """
    out = np.empty_like(rows) if out is None else out
    for i, j in row_blocks(*rows.shape, BLOCK_CELLS):
        _require_rows(on_simplex(rows[i:j]), f"of {what} is not a probability vector", start + i)
        block = np.clip(rows[i:j], 0.0, None, out=rows[i:j] if out is rows else None)
        np.divide(block, block.sum(axis=1, keepdims=True), out=out[i:j])
    return out


def positive_prior(c, k: int) -> np.ndarray:
    """The entries of a source prior ``c``; ValidationError unless it is a probability
    vector of ``k`` entries, each above 0."""
    c = _as_probability_vector(c).entries
    if c.size != k:
        raise ValidationError(f"c has {c.size} entries, expected {k}")
    if np.any(c <= 0.0):
        raise ValidationError("c must be strictly positive")
    return c


def validate_simplex(v: VectorLike, tol: float = SIMPLEX_TOL) -> bool:
    """True iff ``v`` is a non-empty vector on the simplex within ``tol``."""
    arr = np.asarray(v, dtype=float)
    return arr.ndim == 1 and arr.size > 0 and bool(on_simplex(arr, tol))


def _simplex_array(v: VectorLike, tol: float) -> np.ndarray:
    """``v`` as a float array; ValidationError unless it is on the simplex within ``tol``."""
    arr = np.asarray(v, dtype=float)
    if not validate_simplex(arr, tol):
        raise ValidationError(f"not a probability vector within tol={tol}: {arr!r}")
    return arr


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A point on the (K-1)-probability simplex, K >= 1."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.clip(_simplex_array(self.entries, SIMPLEX_TOL), 0.0, None)
        self._hold(arr / arr.sum())

    @classmethod
    def as_written(cls, v: VectorLike, tol: float = SIMPLEX_TOL) -> "ProbabilityVector":
        """``v`` unchanged but for in-tolerance negative entries, which become 0.

        It must be on the simplex within ``tol``, as for the constructor, which
        also renormalizes and so can move a vector read back from a report off
        the one written in its last bit.
        """
        arr = _simplex_array(v, tol)
        out = object.__new__(cls)
        out._hold(np.where(arr < 0.0, 0.0, arr))
        return out

    def _hold(self, entries: np.ndarray) -> None:
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def k(self) -> int:
        return self.entries.size

    def __len__(self) -> int:
        return self.entries.size

    def __getitem__(self, j: int) -> float:
        return float(self.entries[j])

    def __repr__(self) -> str:
        return f"ProbabilityVector({self.entries.tolist()})"


def json_value(kind: type, value):
    """A JSON ``value`` as ``kind``: int, float (an int too), bool, str, an ndarray of
    numbers or a ``ProbabilityVector`` taken as written."""
    if kind is ProbabilityVector:
        return ProbabilityVector.as_written(json_value(np.ndarray, value))
    if kind is np.ndarray:
        arr = np.array(value)
        if arr.dtype.kind not in "iuf":
            raise ValidationError(f"must be numbers, got {value!r}")
        return arr.astype(float)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValidationError(f"must be {kind.__name__}, got {value!r}")
    return kind(value)


def json_fields(obj, what: str, kinds: dict, optional=()) -> dict:
    """``obj``'s value at each key of ``kinds`` as ``json_value`` reads that key's kind.

    A key in ``optional`` may be missing or null, and is then left out of the
    result. ``obj`` that is not a JSON object, or a key that is missing or
    mistyped, raises ValidationError naming ``what`` and the key.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    values = {}
    for key, kind in kinds.items():
        if obj.get(key) is None and key in optional:
            continue
        if key not in obj:
            raise ValidationError(f"{what} is missing field {key!r}")
        try:
            values[key] = json_value(kind, obj[key])
        except ValueError as exc:
            raise ValidationError(f"{what} field {key!r}: {exc}") from None
    return values


def report_dict(report) -> dict:
    """A report dataclass as a JSON object, one key per field in declaration order.

    Fields that are None are left out, a field's ``metadata["key"]`` replaces
    its name as the key, and probability vectors become lists of floats.
    """
    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if value is not None:
            if isinstance(value, ProbabilityVector):
                value = value.entries.tolist()
            out[f.metadata.get("key", f.name)] = value
    return out


def _as_probability_vector(p: Union[ProbabilityVector, VectorLike]) -> ProbabilityVector:
    return p if isinstance(p, ProbabilityVector) else ProbabilityVector(np.asarray(p, dtype=float))


@dataclass(frozen=True, eq=False)
class SourceLabelModel:
    """Source ID label distribution c and source ID data ratio rho_s."""

    c: ProbabilityVector
    rho_s: float

    def __post_init__(self):
        c = _as_probability_vector(self.c)
        if np.any(c.entries < MIN_CLASS_PROB):
            raise ValidationError(
                f"source class probabilities c must be >= {MIN_CLASS_PROB}; got {c.entries!r}"
            )
        rho = min(max(real_in("rho_s", self.rho_s, 0, 1, strict=True), RHO_EPS), 1.0 - RHO_EPS)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rho_s", rho)

    @property
    def k(self) -> int:
        return self.c.k

    def extended(self) -> ProbabilityVector:
        """The (K+1)-class source distribution [rho_s*c, 1-rho_s]."""
        return extend_distribution(self.c, self.rho_s)


@dataclass(frozen=True, eq=False)
class TargetLabelModel:
    """Target ID label distribution pi and target ID data ratio rho_t."""

    pi: ProbabilityVector
    rho_t: float

    def __post_init__(self):
        object.__setattr__(self, "pi", _as_probability_vector(self.pi))
        object.__setattr__(self, "rho_t", real_in("rho_t", self.rho_t, 0, 1))

    @property
    def k(self) -> int:
        return self.pi.k


class RecordSet:
    """An immutable column-wise batch of prediction records.

    Stores ``f`` as an (N, K) array, ``h`` as (N,), and optionally ground-truth
    labels ``y`` as (N,) ints in 1..K+1. This is the one in-memory
    representation of classifier outputs: every estimator, the correction and
    the file readers and writers consume or produce it.
    """

    __slots__ = ("f", "h", "y")

    def __init__(self, f: np.ndarray, h: np.ndarray, y: Optional[np.ndarray] = None):
        self._check(np.atleast_2d(np.array(f, dtype=float)), np.array(h, dtype=float).ravel(),
                    None if y is None else np.array(y))

    @classmethod
    def _adopt(cls, f: np.ndarray, h: np.ndarray, y: Optional[np.ndarray] = None) -> "RecordSet":
        """Records that hold the caller's fresh float64 arrays: an (N, K) ``f``, an (N,) ``h``
        and ``y`` if given, checked as the constructor checks them. ``f`` is clipped
        and normalized and ``h`` clipped in place, to the constructor's bits."""
        return cls.__new__(cls)._check(f, h, y)

    def _check(self, f: np.ndarray, h: np.ndarray, y: Optional[np.ndarray]) -> "RecordSet":
        """Check, clip and normalize the columns in place, and hold them."""
        if f.shape[0] != h.size:
            raise ValidationError(f"f has {f.shape[0]} rows but h has {h.size} entries")
        if f.shape[0] == 0:
            raise ValidationError("empty record set")
        # A block of rows at a time, so no mask is as large as f; the finite
        # check runs over every row first, so a non-finite value is named first.
        for i, j in row_blocks(f.shape[0], f.shape[1], BLOCK_CELLS):
            finite = np.isfinite(f[i:j]).all(axis=1) & np.isfinite(h[i:j])
            _require_rows(finite, "has a non-finite value in f or h", i)
        normalized_rows(f, "f", out=f)
        h = _clipped_h(h)
        if y is not None:
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
            y = y.astype(np.int64, copy=False)
        return self._set(f, h, y)

    def _set(self, f: np.ndarray, h: np.ndarray, y: Optional[np.ndarray]) -> "RecordSet":
        """Hold the checked columns, read-only and as they are."""
        for column in (f, h, y):
            if column is not None:
                column.flags.writeable = False
        self.f, self.h, self.y = f, h, y
        return self

    @property
    def k(self) -> int:
        return self.f.shape[1]

    def extended_f(self, order: str = "K") -> np.ndarray:
        """The (N, K+1) matrix of combined outputs [h*f, 1-h], in one fresh array.

        ``order`` is its memory layout, "C" or "F", or "K" for that of ``f``. Row
        sums of the matrix depend on its layout in the last bit.
        """
        k = self.k
        out = np.empty_like(self.f, shape=(len(self), k + 1), order=order)
        np.multiply(self.f, self.h[:, None], out=out[:, :k])
        np.subtract(1.0, self.h, out=out[:, k])
        return out

    def with_h(self, h: np.ndarray) -> "RecordSet":
        """These records with scores ``h``, checked and clipped as the constructor does;
        ``f`` and ``y`` are kept bit for bit, not normalized again."""
        h = np.array(h, dtype=float).ravel()
        if h.size != len(self):
            raise ValidationError(f"f has {len(self)} rows but h has {h.size} entries")
        _require_rows(np.isfinite(h), "has a non-finite value in f or h")
        return RecordSet.__new__(RecordSet)._set(self.f, _clipped_h(h), self.y)

    def take(self, idx: np.ndarray) -> "RecordSet":
        """The records at the indices ``idx``, each column kept bit for bit."""
        h = self.h[idx]
        if h.size == 0:
            raise ValidationError("empty record set")
        y = None if self.y is None else self.y[idx]
        return RecordSet.__new__(RecordSet)._set(self.f[idx], h, y)

    def __len__(self) -> int:
        return self.h.size


def _clipped_h(h: np.ndarray) -> np.ndarray:
    """Finite scores ``h`` clipped to [0, 1] in place; ValidationError naming the
    first score more than ``SIMPLEX_TOL`` outside."""
    _require_rows((h >= -SIMPLEX_TOL) & (h <= 1.0 + SIMPLEX_TOL), "of h is not in [0, 1]")
    return np.clip(h, 0.0, 1.0, out=h)


def extend_distribution(base: Union[ProbabilityVector, VectorLike], rho: float) -> ProbabilityVector:
    """Combine an ID distribution and an ID ratio into the (K+1)-class vector [rho*p, 1-rho]."""
    base = _as_probability_vector(base)
    rho = real_in("rho", rho, 0, 1)
    entries = np.concatenate([rho * base.entries, [1.0 - rho]])
    return ProbabilityVector(entries)
