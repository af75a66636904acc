"""Shared probability types, simplex arithmetic and extended (K+1)-class constructions.

Label convention: ID classes are 1..K, the out-of-distribution class is K+1.
Classifier outputs enter only as a ``RecordSet``, whose columns meet
``record_columns``. A number, in files and library calls alike, is an int or a
float, numpy's included (what ``np.asarray`` makes an integer or floating array
of), never a bool, a string or None. Every array argument is converted by
``numbers`` and checked by ``reals_in``, ``labels_in`` or ``simplex_rows``, each
naming the parameter and the first bad row. All types are immutable after
construction and safe to share across threads.
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


def _rule(low: float, high: float, strict: bool, many: bool) -> str:
    """The words of the range rule of ``real_in`` (one number) or ``reals_in`` (``many``)."""
    numbers = "finite numbers" if many else "a finite number"
    if math.isinf(high) and math.isinf(low):
        return f"be {numbers}"
    if math.isinf(high):
        return f"be {numbers} {'>' if strict else '>='} {low:.12g}"
    return f"lie in {'(' if strict else '['}{low:.12g}, {high:.12g}{')' if strict else ']'}"


def _is_number(value) -> bool:
    """Whether ``value`` is one number: an int or a float, numpy's included, not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def real_in(name: str, value, low: float, high: float = math.inf, strict: bool = False) -> float:
    """``float(value)`` for a number between ``low`` and ``high``, ends included unless ``strict``.

    An infinite end is always open and NaN lies in no interval, so the value is
    finite. Otherwise ValidationError names the parameter, the range and the
    value: "delta must lie in (0, 1); got 0.0", "T must be a finite number >= 1; got nan".
    """
    try:
        x = float(value) if _is_number(value) else math.nan
    except OverflowError:  # an int beyond float64
        x = math.nan
    if (low < x < high if strict else low <= x <= high) and math.isfinite(x):
        return x
    shown = value if _is_number(value) else repr(value)
    raise ValidationError(f"{name} must {_rule(low, high, strict, False)}; got {shown}")


def whole_number(name: str, value, least: Optional[int] = None) -> int:
    """``operator.index(value)``: an int or a numpy integer, never a bool, a float, NaN or
    inf, and at least ``least`` when that is given; otherwise ValidationError names
    the parameter and the value: "k must be a whole number >= 1; got 2.5"."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or (least is not None and n < least):
        rule = "" if least is None else f" >= {least}"
        shown = value if _is_number(value) else repr(value)
        raise ValidationError(f"{name} must be a whole number{rule}; got {shown}")
    return n


class RowError(ValidationError):
    """A ValidationError about row ``row`` of an array argument: "<what> at row <row>"."""

    def __init__(self, what: str, row: int):
        super().__init__(what, row)
        self.what, self.row = what, row

    def __str__(self) -> str:
        return f"{self.what} at row {self.row}"


def _holds_bool(values, arr: np.ndarray) -> bool:
    """Whether ``values``, of which ``np.asarray`` made the number array ``arr``, hold a bool,
    which it reads as 0 or 1: only rows with such an entry are looked at."""
    if isinstance(values, np.ndarray) or arr.ndim == 0 or arr.size == 0:
        return False
    rows = arr.reshape(arr.shape[0], -1)
    rows = [values[i] for i in np.flatnonzero(((rows == 0) | (rows == 1)).any(axis=1))]
    return any(isinstance(x, (bool, np.bool_)) for x in np.asarray(rows, dtype=object).flat)


def _numbers(name: str, values, rule: str) -> np.ndarray:
    """``values`` as an array of numbers, its integer or floating dtype kept; else RowError
    names the first row that is not numbers, or not shaped as the row before it."""
    try:
        arr = np.asarray(values)
    except ValueError:  # rows of unequal lengths
        arr = None
    if arr is not None and arr.dtype.kind in "iuf" and not _holds_bool(values, arr):
        return arr
    rows = values.tolist() if isinstance(values, np.ndarray) else values
    for i, row in enumerate([rows] if arr is not None and arr.ndim == 0 else rows):
        try:
            cells = np.asarray(row)
        except ValueError:
            cells = None
        if (cells is None or cells.dtype.kind not in "iuf" or (i and cells.shape != shape)
                or _holds_bool(row, cells)):
            raise RowError(f"{name} must {rule}; got {row!r}", i)
        shape = cells.shape
    raise RowError(f"{name} must {rule}; got {values!r}", 0)


def numbers(name: str, values, rule: str = "be numbers") -> np.ndarray:
    """``values`` as a float64 array, itself if it is one, with no range check; else
    RowError names the parameter, the rule and the first row that is not numbers."""
    return _numbers(name, values, rule).astype(float, copy=False)


def _require(name: str, rule: str, arr: np.ndarray, ok_of, start: int = 0) -> None:
    """RowError naming the first entry of ``arr`` in row order where the mask
    ``ok_of(block)`` is False, or the first row where a one-column mask is, with
    rows counted from ``start``. A block of rows at a time, so no mask is as large as ``arr``."""
    if not arr.size:
        return
    rows = arr.reshape(arr.shape[0], -1) if arr.ndim else arr.reshape(1, 1)
    for i, j in row_blocks(*rows.shape, BLOCK_CELLS):
        ok = ok_of(rows[i:j])
        if not ok.all():
            r, c = divmod(int(np.argmin(ok)), ok.shape[1])
            got = rows[i + r] if ok.shape[1] < rows.shape[1] else rows[i + r, c]
            got = np.array2string(got, separator=", ", threshold=8) if got.ndim else got
            raise RowError(f"{name} must {rule}; got {got}", start + i + r)


def reals_in(name: str, values, low: float, high: float = math.inf,
             strict: bool = False) -> np.ndarray:
    """``values`` as a float64 array, itself if it is one, whose every entry lies in
    ``real_in``'s interval, so is finite; else RowError names the parameter, the
    rule, the first bad entry in row order and its row, a string or a row shaped
    unlike the rest too: "alpha_in must be finite numbers >= 1; got nan at row 2"."""
    rule = _rule(low, high, strict, True)
    arr = numbers(name, values, rule)
    above = np.greater if strict or math.isinf(low) else np.greater_equal
    below = np.less if strict or math.isinf(high) else np.less_equal
    _require(name, rule, arr, lambda block: above(block, low) & below(block, high))
    return arr


def labels_in(name: str, values, n: int, nulls: Optional[np.ndarray] = None) -> np.ndarray:
    """``values`` as int64 labels in 1..``n``, each float label integral; entries that
    ``nulls`` flags hold no label and come back 0. Else RowError names the
    parameter, the rule, the first bad label, a string too, and its row:
    "y must be whole numbers in 1..3; got 1.7 at row 1"."""
    rule = f"be whole numbers in 1..{n}"
    arr = _numbers(name, values, rule)
    if nulls is not None:
        arr = np.where(nulls, 1, arr)
    _require(name, rule, arr, lambda b: (b >= 1) & (b <= n) & (b == np.floor(b)))
    labels = arr.astype(np.int64, copy=False)
    if nulls is not None:
        labels[nulls] = 0
    return labels


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


def simplex_rows(name: str, rows: np.ndarray, start: int = 0) -> np.ndarray:
    """``rows``, an (N, K) array, if each row is a probability vector within ``SIMPLEX_TOL``;
    else RowError names the first that is not, counting rows from ``start``."""
    rule = f"be probability vectors within {SIMPLEX_TOL:g}"
    _require(name, rule, rows, lambda block: on_simplex(block)[:, None], start)
    return rows


def normalized_rows(rows: np.ndarray, what: str, out: Optional[np.ndarray] = None,
                    start: int = 0) -> np.ndarray:
    """``rows`` clipped at 0 and divided by their row sums, written to ``out``: ``rows``
    itself, another array of their shape, or None for a new one.

    A block of rows at a time, each checked by ``simplex_rows(what, ...)`` before it
    is written, counting rows from ``start``. Each row sum is taken over a clipped
    block laid out as ``rows`` is, to the bits of ``np.clip(rows, 0, None).sum(axis=1)``.
    """
    out = np.empty_like(rows) if out is None else out
    for i, j in row_blocks(*rows.shape, BLOCK_CELLS):
        simplex_rows(what, rows[i:j], start + i)
        block = np.clip(rows[i:j], 0.0, None, out=rows[i:j] if out is rows else None)
        np.divide(block, block.sum(axis=1, keepdims=True), out=out[i:j])
    return out


def _vector_in(name: str, v, low: float = -math.inf, strict: bool = False) -> "ProbabilityVector":
    """``v`` as a ProbabilityVector, kept if it is one, its entries checked by
    ``reals_in(name, ..., low, strict=strict)`` before the simplex rule."""
    if isinstance(v, ProbabilityVector):
        reals_in(name, v.entries, low, strict=strict)
        return v
    return ProbabilityVector(reals_in(name, v, low, strict=strict))


def positive_prior(c, k: int) -> np.ndarray:
    """The entries of a source prior ``c``; ValidationError unless it is a probability
    vector of ``k`` entries, each above 0."""
    c = _vector_in("c", c, 0.0, strict=True).entries
    if c.size != k:
        raise ValidationError(f"c has {c.size} entries, expected {k}")
    return c


def validate_simplex(v: VectorLike, tol: float = SIMPLEX_TOL) -> bool:
    """True iff the numbers ``v`` are a non-empty vector on the simplex within ``tol``."""
    arr = numbers("v", v)
    return arr.ndim == 1 and arr.size > 0 and bool(on_simplex(arr, tol))


def _simplex_array(v: VectorLike, tol: float) -> np.ndarray:
    """``v`` as a float array; ValidationError unless it is on the simplex within ``tol``."""
    arr = numbers("entries", v)
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


def json_value(name: str, kind: type, value):
    """JSON field ``name``'s ``value`` as ``kind``: a whole number (int), a finite number
    (float), a bool, a str, an ndarray of numbers or a ``ProbabilityVector`` taken as written."""
    if kind is ProbabilityVector:
        return ProbabilityVector.as_written(json_value(name, np.ndarray, value))
    if kind is int:
        return whole_number(name, value)
    if kind is float:
        return real_in(name, value, -math.inf)
    if kind is np.ndarray:
        return numbers(name, value)
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be {kind.__name__}; got {value!r}")
    return value


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
            values[key] = json_value(key, kind, obj[key])
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


@dataclass(frozen=True, eq=False)
class SourceLabelModel:
    """Source ID label distribution c and source ID data ratio rho_s."""

    c: ProbabilityVector
    rho_s: float

    def __post_init__(self):
        c = _vector_in("c", self.c, MIN_CLASS_PROB)
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
        object.__setattr__(self, "pi", _vector_in("pi", self.pi, -SIMPLEX_TOL))
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
        self._set(*record_columns(_owned(f), _owned(h), _owned(y)))

    @classmethod
    def _adopt(cls, f: np.ndarray, h: np.ndarray, y: Optional[np.ndarray] = None) -> "RecordSet":
        """Records that hold the caller's fresh float64 arrays: an (N, K) ``f``, an (N,) ``h``
        and ``y`` if given, checked as the constructor checks them. ``f`` is clipped
        and normalized and ``h`` clipped in place, to the constructor's bits."""
        return cls._holding(*record_columns(f, h, y))

    @classmethod
    def _holding(cls, f: np.ndarray, h: np.ndarray, y: Optional[np.ndarray]) -> "RecordSet":
        """Records that hold columns ``record_columns`` has checked, read-only and as they are."""
        return cls.__new__(cls)._set(f, h, y)

    def _set(self, f: np.ndarray, h: np.ndarray, y: Optional[np.ndarray]) -> "RecordSet":
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
        h = _clipped_h(_owned(h))
        if h.size != len(self):
            raise ValidationError(f"f has {len(self)} rows but h has {h.size} entries")
        return RecordSet._holding(self.f, h, self.y)

    def take(self, idx: np.ndarray) -> "RecordSet":
        """The records at the indices ``idx``, each column kept bit for bit."""
        h = self.h[idx]
        if h.size == 0:
            raise ValidationError("empty record set")
        y = None if self.y is None else self.y[idx]
        return RecordSet._holding(self.f[idx], h, y)

    def __len__(self) -> int:
        return self.h.size


def _owned(values):
    """A copy of an array, so that checks in place leave the caller's alone; anything
    else as it is, for the checks to convert, and name its own entries."""
    return np.array(values) if isinstance(values, np.ndarray) else values


def _clipped_h(h) -> np.ndarray:
    """Scores ``h`` in [0, 1] within ``SIMPLEX_TOL``, clipped to it, as a vector."""
    h = reals_in("h", h, -SIMPLEX_TOL, 1.0 + SIMPLEX_TOL)
    np.clip(h, 0.0, 1.0, out=h)
    return h if h.ndim == 1 else h.ravel()


def record_columns(f, h, y=None, nulls: Optional[np.ndarray] = None) -> tuple:
    """``(f, h, y)`` checked as a record set's columns: an (N, K) ``f`` of finite
    probability rows, N scores ``h`` and, if given, N labels ``y`` in 1..K+1, those
    ``nulls`` flags coming back 0. ``f`` is normalized and ``h`` clipped in place
    when they are float64 arrays. ``f``'s finite check covers every row before
    the simplex check, so a non-finite value is named first."""
    f = np.atleast_2d(reals_in("f", f, -math.inf))
    if f.ndim != 2:
        raise ValidationError(f"f must be an (N, K) matrix; got shape {f.shape}")
    h = _clipped_h(h)
    if f.shape[0] != h.size:
        raise ValidationError(f"f has {f.shape[0]} rows but h has {h.size} entries")
    if f.shape[0] == 0:
        raise ValidationError("empty record set")
    if y is not None:
        y = labels_in("y", y, f.shape[1] + 1, nulls)
        if y.shape != h.shape:
            raise ValidationError("y must have one entry per record")
    return normalized_rows(f, "f", out=f), h, y


def mixing(p: np.ndarray, rho) -> np.ndarray:
    """The extended vector ``[rho * p, 1 - rho]``, or ``p`` itself when rho is None."""
    return p if rho is None else np.append(rho * p, 1.0 - rho)


def extend_distribution(base: Union[ProbabilityVector, VectorLike], rho: float) -> ProbabilityVector:
    """Combine an ID distribution and an ID ratio into the (K+1)-class vector [rho*p, 1-rho]."""
    return ProbabilityVector(mixing(_vector_in("base", base).entries, real_in("rho", rho, 0, 1)))
