"""File formats: prediction records, corrected predictions, features, reports and configs.

Prediction files are line-delimited JSON objects ``{"f": [...], "h": x, "y": k}``
(``y`` optional); a CSV alternative with header ``f1,...,fK,h[,y]`` is selected
by the ``.csv`` extension on both read and write. Corrected files hold
``{"g": [...], "y_hat": j, "y": k}`` lines, with the CSV alternative
``g1,...,gK+1,y_hat[,y]`` chosen the same way. Feature files are CSV with
header ``x1,...,xd``. All files are UTF-8.

Tables are written and read ``BLOCK_ROWS`` rows at a time. A block of floats
is formatted with one ``repr`` of its nested list, which spells every finite
float as ``float.__repr__`` (shortest exact round-trip) does, exactly as
``json.dumps`` would, so fixed inputs produce byte-identical outputs. A block
of JSON lines is parsed with one ``json.loads`` and its columns are converted
with numpy.

Values must be finite and labels integral. Input that is not raises
``ValidationError`` naming the file and the 1-based line: a block that fails
is parsed again line by line to find it. Writers refuse non-finite values,
which no JSON text encodes.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import ProbabilityVector, RecordSet, ValidationError
from .simulate import ScenarioConfig, ShiftSpec

PathLike = Union[str, Path]

# Rows formatted or parsed per step: large enough that the per-block calls
# are cheap, small enough that only one block of Python objects is alive.
BLOCK_ROWS = 4096

# Joins a block of JSON lines into one array text. A raw newline can sit in no
# JSON string, so each separator parses as one NaN constant; the block then
# parses to 2n - 1 values with a separator at every odd position, and no other
# constant, only when each of the n lines holds exactly one value.
_SEPARATOR = "\n,NaN,\n"
_SEPARATOR_MARK = object()

# Labels beyond this magnitude are not exact as float64 and not sensible labels.
_MAX_LABEL = 2.0**53

# What converting a malformed row can raise; ValidationError is a ValueError.
_ROW_ERRORS = (ValueError, TypeError, LookupError, AttributeError, OverflowError, RecursionError)


def _is_csv(path: PathLike) -> bool:
    return str(path).lower().endswith(".csv")


# --- writing -----------------------------------------------------------------


def _float_rows(block: np.ndarray, sep: str) -> list:
    """Each row of a finite 2-D float block as the reprs of its entries joined by ``sep``."""
    text = repr(block.tolist())[2:-2]
    if sep != ", ":
        text = text.replace(", ", sep)
    return text.split("]" + sep + "[")


def _write_table(path: PathLike, header: Optional[str], template: str, columns: list,
                 sep: str) -> None:
    """Write one ``template.format(*cells)`` line per row, BLOCK_ROWS rows at a time.

    ``columns`` holds 2-D float arrays, whose rows become ``sep``-joined reprs,
    and 1-D integer arrays. Nothing is written unless every float is finite.
    """
    n = columns[0].shape[0]
    for col in columns:
        if col.shape[0] != n:
            raise ValidationError(f"cannot write {path}: columns have {n} and {col.shape[0]} rows")
        if col.ndim == 2:
            finite = np.isfinite(col).all(axis=1)
            if not finite.all():
                raise ValidationError(
                    f"cannot write {path}: row {int(np.argmin(finite))} has a non-finite value"
                )
    with open(path, "w", encoding="utf-8") as out:
        if header is not None:
            out.write(header + "\n")
        for start in range(0, n, BLOCK_ROWS):
            cells = [
                _float_rows(col[start : start + BLOCK_ROWS], sep)
                if col.ndim == 2
                else map(str, col[start : start + BLOCK_ROWS].tolist())
                for col in columns
            ]
            out.write("\n".join(map(template.format, *cells)) + "\n")


def _csv_template(columns: list) -> str:
    return ",".join(["{}"] * len(columns))


def write_records(path: PathLike, records: RecordSet) -> None:
    """Write a prediction file; format chosen by extension."""
    columns = [records.f, records.h[:, None]]
    if records.y is not None:
        columns.append(records.y)
    if _is_csv(path):
        header = [f"f{j + 1}" for j in range(records.k)] + ["h"]
        if records.y is not None:
            header.append("y")
        _write_table(path, ",".join(header), _csv_template(columns), columns, ",")
        return
    template = '{{"f": [{}], "h": {}}}' if records.y is None else '{{"f": [{}], "h": {}, "y": {}}}'
    _write_table(path, None, template, columns, ", ")


def write_corrected(
    path: PathLike,
    posteriors: np.ndarray,
    labels: np.ndarray,
    y: Optional[np.ndarray] = None,
) -> None:
    """Write corrected (K+1)-class posteriors with argmax labels."""
    posteriors = np.atleast_2d(np.asarray(posteriors, dtype=float))
    columns = [posteriors, np.asarray(labels, dtype=np.int64).ravel()]
    if y is not None:
        columns.append(np.asarray(y, dtype=np.int64).ravel())
    if _is_csv(path):
        header = [f"g{j + 1}" for j in range(posteriors.shape[1])] + ["y_hat"]
        if y is not None:
            header.append("y")
        _write_table(path, ",".join(header), _csv_template(columns), columns, ",")
        return
    template = '{{"g": [{}], "y_hat": {}}}' if y is None else '{{"g": [{}], "y_hat": {}, "y": {}}}'
    _write_table(path, None, template, columns, ", ")


def write_features(path: PathLike, x: np.ndarray) -> None:
    """Write raw feature rows as CSV with header x1,...,xd."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    header = ",".join(f"x{j + 1}" for j in range(x.shape[1]))
    _write_table(path, header, _csv_template([x]), [x], ",")


# --- reading -----------------------------------------------------------------


def _read_lines(path: Path) -> list:
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None


def _non_blank(lines: list) -> list:
    return [line for line in lines if line.strip()]


def _read_table(path: Path, lines: list, rows: list, skip: int, parse_block, parse_line,
                convert) -> list:
    """Convert ``rows`` to column arrays, BLOCK_ROWS rows at a time.

    ``rows`` are the non-blank ``lines`` after the first ``skip`` of them.
    ``parse_block`` turns a list of lines, and ``parse_line`` one line, into a
    list of parsed rows; ``convert(parsed, width)`` turns those into checked
    column arrays, the first 2-D and ``width`` wide once a block has set it. A
    block that fails is converted again line by line, so the error names the
    first bad line.
    """
    blocks, width = [], None
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start : start + BLOCK_ROWS]
        try:
            columns = convert(parse_block(block), width)
        except _ROW_ERRORS:
            numbers = [i for i, line in enumerate(lines, 1) if line.strip()]
            columns = _convert_lines(path, block, numbers[skip + start :], parse_line,
                                     convert, width)
        width = columns[0].shape[1]
        blocks.append(columns)
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _convert_lines(path, block, numbers, parse_line, convert, width) -> list:
    rows = []
    for number, line in zip(numbers, block):
        try:
            columns = convert(parse_line(line), width)
        except _ROW_ERRORS as exc:
            raise ValidationError(f"{path}: line {number}: {exc}") from None
        width = columns[0].shape[1]
        rows.append(columns)
    return [np.concatenate(parts) for parts in zip(*rows)]


def _non_finite_constant(name: str):
    raise ValidationError(f"{name} is not a finite number")


def _loads_block(lines: list) -> list:
    """The JSON values of ``lines`` from one ``json.loads`` call.

    Raises ValueError unless each line holds exactly one JSON value and no
    NaN or Infinity constant.
    """
    constants = []

    def separator(name):
        constants.append(name)
        return _SEPARATOR_MARK

    values = json.loads("[" + _SEPARATOR.join(lines) + "]", parse_constant=separator)
    n = len(lines)
    if (len(constants) != n - 1 or len(values) != 2 * n - 1
            or values[1::2].count(_SEPARATOR_MARK) != n - 1):
        raise ValueError("block does not parse as one finite JSON value per line")
    return values[::2]


def _loads_line(line: str) -> list:
    return [json.loads(line, parse_constant=_non_finite_constant)]


def _field(objs: list, key: str, optional: bool = False) -> list:
    try:
        return [obj.get(key) for obj in objs] if optional else [obj[key] for obj in objs]
    except KeyError:
        raise ValidationError(f"missing field {key!r}") from None
    except (TypeError, AttributeError):
        raise ValidationError("a record must be a JSON object") from None


def _floats(values, what: str) -> np.ndarray:
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what}: {exc}") from None


def _finite(col: np.ndarray, what: str) -> np.ndarray:
    ok = np.isfinite(col) if col.ndim == 1 else np.isfinite(col).all(axis=1)
    if not ok.all():
        raise ValidationError(f"{what} is not finite")
    return col


def _integral(col: np.ndarray, what: str, nulls: Optional[np.ndarray] = None) -> np.ndarray:
    """``col`` if every entry not flagged in ``nulls`` is an integer label."""
    ok = (col == np.floor(col)) & (np.abs(col) <= _MAX_LABEL)
    if nulls is not None:
        ok |= nulls
    if not ok.all():
        raise ValidationError(f"{what} must be an integer, got {col[np.argmin(ok)]}")
    return col


def _vectors(values: list, key: str, width: Optional[int]) -> np.ndarray:
    col = _floats(values, repr(key))
    if col.ndim != 2 or (width is not None and col.shape[1] != width):
        raise ValidationError(f"{key!r} must be a list of {width or 'K'} numbers")
    return _finite(col, repr(key))


def _numbers(values: list, key: str) -> np.ndarray:
    col = _floats(values, repr(key))
    if col.ndim != 1:
        raise ValidationError(f"{key!r} must be a number")
    return _finite(col, repr(key))


def _labels(values: list, key: str, optional: bool = False) -> np.ndarray:
    """Integer labels as floats; NaN where an optional label is null or absent."""
    col = _floats(values, repr(key))
    if col.ndim != 1:
        raise ValidationError(f"{key!r} must be an integer")
    nulls = None
    if optional:
        nulls = np.isnan(col)
        if np.count_nonzero(nulls) != values.count(None):
            nulls = None  # a NaN that is not a null: report it
    return _integral(col, repr(key), nulls)


def _record_columns(objs: list, width: Optional[int]) -> tuple:
    return (
        _vectors(_field(objs, "f"), "f", width),
        _numbers(_field(objs, "h"), "h"),
        _labels(_field(objs, "y", optional=True), "y", optional=True),
    )


def _corrected_columns(objs: list, width: Optional[int]) -> tuple:
    return (
        _vectors(_field(objs, "g"), "g", width),
        _labels(_field(objs, "y_hat"), "y_hat"),
        _labels(_field(objs, "y", optional=True), "y", optional=True),
    )


def _split_cells(lines: list) -> list:
    return [line.split(",") for line in lines]


def _split_line(line: str) -> list:
    return [line.split(",")]


def _csv_table(rows: list, columns: list) -> np.ndarray:
    """The cells of ``columns`` in each split CSV row, as an (n, len(columns)) array."""
    try:
        picked = list(map(itemgetter(*columns), rows))
    except IndexError:
        raise ValidationError(f"a row needs at least {max(columns) + 1} cells") from None
    return _floats(picked, "cell").reshape(len(rows), len(columns))


def _labels_or_none(y: np.ndarray) -> Optional[np.ndarray]:
    """Labels when every row has one, else None."""
    return None if np.isnan(y).any() else y.astype(np.int64)


def _csv_prediction_columns(path: Path, lines: list, rows: list, prefix: str, scalar: str,
                            check_scalar) -> tuple:
    """The columns of a CSV file with header ``{prefix}1,...,{prefix}K,{scalar}[,y]``.

    Returns the (N, K) vectors, the checked scalar column and the int64
    labels, or None when the header has no ``y``.
    """
    if len(rows) < 2:
        raise ValidationError(f"CSV file {path} needs a header and at least one row")
    header = [h.strip() for h in rows[0].split(",")]
    if scalar not in header:
        raise ValidationError(f"CSV header must contain the {scalar!r} column")
    k = header.index(scalar)
    if header[:k] != [f"{prefix}{j + 1}" for j in range(k)]:
        raise ValidationError(f"CSV header must start with {prefix}1,{prefix}2,...")
    has_y = "y" in header
    columns = list(range(k + 1)) + ([header.index("y")] if has_y else [])

    def convert(cells, width):
        table = _csv_table(cells, columns)
        out = (_finite(table[:, :k], prefix), check_scalar(table[:, k], scalar))
        return out + (_integral(table[:, k + 1], "y"),) if has_y else out

    out = _read_table(path, lines, rows[1:], 1, _split_cells, _split_line, convert)
    return out[0], out[1], out[2].astype(np.int64) if has_y else None


def read_records(path: PathLike) -> RecordSet:
    """Read a prediction file (JSONL by default, CSV by extension)."""
    path = Path(path)
    lines = _read_lines(path)
    rows = _non_blank(lines)
    if _is_csv(path):
        return RecordSet(*_csv_prediction_columns(path, lines, rows, "f", "h", _finite))
    if not rows:
        raise ValidationError(f"prediction file {path} contains no records")
    f, h, y = _read_table(path, lines, rows, 0, _loads_block, _loads_line, _record_columns)
    return RecordSet(f, h, _labels_or_none(y))


def read_corrected(path: PathLike) -> dict:
    """Read a corrected predictions file (JSONL by default, CSV by extension).

    Returns arrays ``g``, ``y_hat`` and ``y``, the last None unless every row
    has a label.
    """
    path = Path(path)
    lines = _read_lines(path)
    rows = _non_blank(lines)
    if _is_csv(path):
        g, y_hat, y = _csv_prediction_columns(path, lines, rows, "g", "y_hat", _integral)
    else:
        if not rows:
            raise ValidationError(f"corrected file {path} contains no records")
        g, y_hat, y = _read_table(path, lines, rows, 0, _loads_block, _loads_line,
                                  _corrected_columns)
        y = _labels_or_none(y)
    return {"g": g, "y_hat": y_hat.astype(np.int64), "y": y}


def read_features(path: PathLike) -> np.ndarray:
    """Read a feature CSV written by ``write_features``."""
    path = Path(path)
    lines = _read_lines(path)
    rows = _non_blank(lines)
    if len(rows) < 2:
        raise ValidationError(f"feature file {path} needs a header and at least one row")
    columns = list(range(len(rows[0].split(","))))

    def convert(cells, width):
        return (_finite(_csv_table(cells, columns), "feature row"),)

    return _read_table(path, lines, rows[1:], 1, _split_cells, _split_line, convert)[0]


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValidationError(f"{text} is not a finite number")
    return value


def write_json(path: PathLike, obj: dict) -> None:
    """Write ``obj`` as indented JSON; non-finite floats raise ValidationError."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path: PathLike) -> dict:
    """Read a JSON file; NaN, Infinity and overflowing numbers raise ValidationError."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"),
                          parse_constant=_non_finite_constant, parse_float=_finite_float)
    except ValueError as exc:
        raise ValidationError(f"cannot parse JSON file {path}: {exc}") from None


def write_truth(path: PathLike, c, rho_s: float, pi, rho_t: float) -> None:
    c = c.entries if isinstance(c, ProbabilityVector) else np.asarray(c, dtype=float)
    pi = pi.entries if isinstance(pi, ProbabilityVector) else np.asarray(pi, dtype=float)
    write_json(
        path,
        {
            "K": int(c.size),
            "c": [float(v) for v in c],
            "rho_s": float(rho_s),
            "pi": [float(v) for v in pi],
            "rho_t": float(rho_t),
        },
    )


def read_truth(path: PathLike) -> dict:
    obj = read_json(path)
    for key in ("K", "c", "rho_s", "pi", "rho_t"):
        if key not in obj:
            raise ValidationError(f"truth file {path} is missing field {key!r}")
    return obj


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return {
        "k": config.k,
        "feature_dim": config.feature_dim,
        "class_means": [[float(v) for v in row] for row in config.class_means],
        "class_scales": [float(v) for v in config.class_scales],
        "c": [float(v) for v in config.c.entries],
        "rho_s": config.rho_s,
        "n_source": config.n_source,
        "n_target": config.n_target,
        "n_ood_ref": config.n_ood_ref,
        "shift": config.shift.key(),
        "r": config.r,
        "seed": config.seed,
        "temperature": config.temperature,
    }


def scenario_from_dict(obj: dict) -> ScenarioConfig:
    return ScenarioConfig(
        k=int(obj["k"]),
        class_means=np.array(obj["class_means"], dtype=float),
        class_scales=np.array(obj["class_scales"], dtype=float),
        c=ProbabilityVector(np.array(obj["c"], dtype=float)),
        rho_s=float(obj["rho_s"]),
        n_source=int(obj["n_source"]),
        n_target=int(obj["n_target"]),
        n_ood_ref=int(obj["n_ood_ref"]),
        shift=ShiftSpec.parse(obj["shift"]),
        r=float(obj["r"]),
        seed=int(obj["seed"]),
        feature_dim=int(obj["feature_dim"]),
        temperature=float(obj.get("temperature", 1.0)),
    )


def parse_kv_file(path: PathLike) -> dict:
    """Parse a plain-text key = value configuration file ('#' starts a comment)."""
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"cannot parse config line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().lower()] = value.strip()
    return out


def _parse_floats(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def scenario_from_kv(kv: dict) -> ScenarioConfig:
    """Build a scenario config from key-value pairs.

    Means come either from the ring layout keys (radius / scale / ood_scale)
    or from an explicit ``class_means`` row list separated by semicolons.
    """
    try:
        k = int(kv["k"])
        seed = int(kv.get("seed", "0"))
    except KeyError as exc:
        raise ValidationError(f"scenario config is missing key {exc}") from exc
    feature_dim = int(kv.get("feature_dim", "2"))
    shift = ShiftSpec.parse(kv.get("shift", "none"))
    c = None
    if "c" in kv:
        c = np.array(_parse_floats(kv["c"]))

    common = dict(
        rho_s=float(kv.get("rho_s", "0.7")),
        n_source=int(kv.get("n_source", "10000")),
        n_target=int(kv.get("n_target", "10000")),
        n_ood_ref=int(kv.get("n_ood_ref", "5000")),
        r=float(kv.get("r", "1.0")),
        temperature=float(kv.get("temperature", "1.0")),
    )
    if "class_means" in kv:
        means = np.array([_parse_floats(row) for row in kv["class_means"].split(";")])
        scales = (
            np.array(_parse_floats(kv["class_scales"]))
            if "class_scales" in kv
            else np.full(k + 1, float(kv.get("scale", "1.0")))
        )
        return ScenarioConfig(
            k=k,
            class_means=means,
            class_scales=scales,
            c=ProbabilityVector(c if c is not None else np.full(k, 1.0 / k)),
            shift=shift,
            seed=seed,
            feature_dim=means.shape[1],
            **common,
        )
    from .simulate import ring_config

    ood_scale = float(kv["ood_scale"]) if "ood_scale" in kv else None
    return ring_config(
        k,
        radius=float(kv.get("radius", "3.0")),
        scale=float(kv.get("scale", "1.0")),
        ood_scale=ood_scale,
        c=c,
        shift=shift,
        seed=seed,
        feature_dim=feature_dim,
        **common,
    )


def sweep_from_kv(kv: dict) -> dict:
    """Split a sweep config into grid axes and the base scenario keys."""
    grid_keys = ("shifts", "r_values", "seeds", "methods")
    shifts = [s.strip() for s in kv.get("shifts", "none").split(",") if s.strip()]
    r_values = _parse_floats(kv.get("r_values", "1.0"))
    seeds = [int(float(s)) for s in _parse_floats(kv.get("seeds", "0"))]
    methods = [m.strip().lower() for m in kv.get("methods", "osls-mle,mlls").split(",") if m.strip()]
    base = {key: value for key, value in kv.items() if key not in grid_keys}
    return {
        "shifts": shifts,
        "r_values": r_values,
        "seeds": seeds,
        "methods": methods,
        "base": base,
    }
