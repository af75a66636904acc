"""File formats: prediction records, corrected predictions, features, reports and configs.

Prediction files are line-delimited JSON objects ``{"f": [...], "h": x, "y": k}``
(``y`` optional); a CSV alternative with header ``f1,...,fK,h[,y]`` is selected
by the ``.csv`` extension on both read and write. Corrected files hold
``{"g": [...], "y_hat": j, "y": k}`` lines, with the CSV alternative
``g1,...,gK+1,y_hat[,y]`` chosen the same way. Feature files are CSV with
header ``x1,...,xd``. All files are UTF-8. A CSV header is the table's schema,
so a column it does not know, or one it names twice, is an error; a JSON
object's extra keys are ignored.

Tables are written ``BLOCK_ROWS`` rows at a time. A block of floats is
formatted with one ``repr`` of its nested list, which spells every finite
float as ``float.__repr__`` (shortest exact round-trip) does, exactly as
``json.dumps`` would, so fixed inputs produce byte-identical outputs.

A line ends at ``b"\\n"`` only, in tables and ``key = value`` configs alike: no
other line break Python knows (``\\r``, VT, FF, FS/GS/RS, NEL, U+2028, U+2029)
ends one, so JSON Lines may hold them where JSON allows. ``\\r\\n``
line ends still work, as ``\\r`` is JSON whitespace and CSV cells and header
names are stripped; lines that end in a lone ``\\r`` make one long line.

A table is read in byte ranges. One scan of the raw bytes cuts the file after
every ``BLOCK_ROWS``-th ``b"\\n"``, which never falls inside a UTF-8 sequence,
so the i-th range starts at line ``1 + i * BLOCK_ROWS``. The table's first
non-blank line fixes its shape before any range is converted: a CSV table's
header, or the first JSON row, whose ``f`` or ``g`` fixes K. Each range is then
read, decoded, split into lines and converted on its own: a block of JSON
lines with one ``json.loads`` and numpy, a block of CSV rows with numpy. A
regular file of more than one range is converted on ``osls.pool``'s workers,
one per core the process may use, each reading its range itself. A stream
such as a pipe is converted in the reading process, a range at a time:
sending its bytes to workers would hold several ranges at once, and workers
forked while this process holds the pipe's write end would keep the pipe open
for ever. The parent copies each block's columns, in file order, into columns
allocated once, so a read holds one copy of the table's arrays and a few
blocks of text, and the bytes and arrays are those of one process.

Each row is checked once, by the process that converts its range, with the
core's rules, its JSON values converted by ``numbers`` (a string or a bool is
no number): a prediction row by ``record_columns``, as in a ``RecordSet``,
which normalizes ``f`` and clips ``h`` in place, so ``read_records`` holds the
columns as read; a corrected row by ``reals_in``, ``simplex_rows`` and
``labels_in``; a feature row by ``reals_in``. A row that fails, or a CSV row
not as long as its header, raises ``ValidationError`` naming the file and the
1-based line: a block that fails is converted again line by line to find it.
A byte that is not UTF-8 is named by its line and its offset in the file.
Writers refuse what readers refuse, before the file is opened: a corrected or
feature row by the rules it is read with; ``write_records`` takes a checked ``RecordSet``.
"""

from __future__ import annotations

import json
import math
import os
import stat
from collections import deque, namedtuple
from dataclasses import MISSING, fields
from functools import partial
from itertools import count
from operator import itemgetter
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import (ProbabilityVector, RecordSet, ValidationError, json_fields,
                   json_value, labels_in, numbers, reals_in, record_columns, simplex_rows)
from .pool import map_in_order, pushed_back
from .simulate import ScenarioConfig, ShiftSpec, ring_config

PathLike = Union[str, Path]

# Rows formatted, or lines parsed, per step: large enough that the per-block
# calls and their trips to a worker are cheap, small enough that only a few
# blocks of Python objects are alive.
BLOCK_ROWS = 4096

# Bytes read per step of the scan that cuts a table file into ranges.
_SCAN_BYTES = 1 << 16

# Joins a block of JSON lines into one array text. A raw newline can sit in no
# JSON string, so each separator parses as one NaN constant; the block then
# parses to 2n - 1 values with a separator at every odd position, and no other
# constant, only when each of the n lines holds exactly one value.
_SEPARATOR = "\n,NaN,\n"
_SEPARATOR_MARK = object()

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


def _format_block(template: str, sep: str, block: list) -> bytes:
    """The UTF-8 lines of one block of ``_write_table``'s columns."""
    cells = [_float_rows(col, sep) if col.ndim == 2 else map(str, col.tolist()) for col in block]
    return ("\n".join(map(template.format, *cells)) + "\n").encode("utf-8")


def _write_table(path: PathLike, header: Optional[str], template: str, columns: list,
                 sep: str) -> None:
    """Write one ``template.format(*cells)`` line per row, BLOCK_ROWS rows at a time.

    ``columns`` holds checked 2-D float arrays, whose rows become ``sep``-joined
    reprs, and 1-D integer arrays, all with the same number of rows.
    """
    n = columns[0].shape[0]
    blocks = ([col[start : start + BLOCK_ROWS] for col in columns]
              for start in range(0, n, BLOCK_ROWS))
    with open(path, "wb") as out:
        if header is not None:
            out.write((header + "\n").encode("utf-8"))
        for _, text in map_in_order(partial(_format_block, template, sep), blocks):
            out.write(text)


# A prediction file kind: its vector column of probability rows, its scalar
# column and whether it is corrected, so that the scalar is a label in
# 1..width, not a score. Every kind has an optional label column ``y``.
_Layout = namedtuple("_Layout", "name vector scalar corrected")
_RECORDS = _Layout("prediction", "f", "h", corrected=False)
_CORRECTED = _Layout("corrected", "g", "y_hat", corrected=True)


def _named(what: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``; a ValueError becomes a ValidationError led by ``what``."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(f"{what}: {exc}") from None


def _write_predictions(path: PathLike, layout: _Layout, *columns) -> None:
    """Write a prediction table of kind ``layout``, by extension, from checked columns:
    (N, width) vectors, a float (N, 1) scalar or (N,) labels, and (N,) labels y or None."""
    columns = [col for col in columns if col is not None]
    keys = [layout.scalar, "y"][: len(columns) - 1]
    if _is_csv(path):
        header = [f"{layout.vector}{j + 1}" for j in range(columns[0].shape[1])] + keys
        _write_table(path, ",".join(header), ",".join(["{}"] * len(columns)), columns, ",")
    else:
        members = [f'"{layout.vector}": [{{}}]'] + [f'"{key}": {{}}' for key in keys]
        _write_table(path, None, "{{" + ", ".join(members) + "}}", columns, ", ")


def write_records(path: PathLike, records: RecordSet) -> None:
    """Write a prediction file; format chosen by extension."""
    _write_predictions(path, _RECORDS, records.f, records.h[:, None], records.y)


def write_corrected(path: PathLike, posteriors: np.ndarray, labels: np.ndarray,
                    y: Optional[np.ndarray] = None) -> None:
    """Write corrected (K+1)-class posteriors with argmax labels, checked as they are read."""
    g, y_hat, labels = _named(f"cannot write {path}", _prediction_columns, _CORRECTED,
                              posteriors, labels, y)
    _write_predictions(path, _CORRECTED, g, y_hat.ravel(), None if y is None else labels.ravel())


def write_features(path: PathLike, x: np.ndarray) -> None:
    """Write raw feature rows as CSV with header x1,...,xd."""
    x = np.atleast_2d(_named(f"cannot write {path}", reals_in, "features", x, -math.inf))
    header = ",".join(f"x{j + 1}" for j in range(x.shape[1]))
    _write_table(path, header, "{}", [x], ",")


# --- reading -----------------------------------------------------------------


# A byte range of a table file: the number of its first line, its start offset,
# then its end offset in a regular file or its bytes in a stream.
_Range = namedtuple("_Range", "first start data")

# A regular table file as workers open it: its path as given, for messages, its
# absolute path, and its device and inode, so that a worker reads the file the
# parent scanned.
_File = namedtuple("_File", "name path identity")


def _ranges(handle, stream: bool):
    """Cut the file read from ``handle`` into ranges that each end after a BLOCK_ROWS-th b"\\n".

    Yields a ``_Range`` per range, the last ending at the end of the file; a
    file without bytes is one empty range. As a line ends only at b"\\n", the
    i-th range starts at line ``1 + i * BLOCK_ROWS``. Only ``_SCAN_BYTES`` of a
    regular file are held at a time, and of a stream, one range more, built in
    one bytearray.
    """
    buf = bytearray(_SCAN_BYTES)
    view, chunk = np.frombuffer(buf, np.uint8), memoryview(buf)
    # need: b"\n"s to the next cut; first: the number of the next range's first line
    data, start, offset, need, first = bytearray(), 0, 0, BLOCK_ROWS, 1
    while True:
        n = handle.readinto(buf)
        if not n:
            break
        breaks = view[:n] == ord("\n")
        count, mark = int(np.count_nonzero(breaks)), 0
        if count >= need:
            for pos in (np.flatnonzero(breaks)[need - 1 :: BLOCK_ROWS] + 1).tolist():
                if stream:
                    data += chunk[mark:pos]
                yield _Range(first, start, data if stream else offset + pos)
                data, start, mark, first = bytearray(), offset + pos, pos, first + BLOCK_ROWS
            need = BLOCK_ROWS - (count - need) % BLOCK_ROWS
        else:
            need -= count
        if stream:
            data += chunk[mark:n]
        offset += n
    if offset > start or not offset:
        yield _Range(first, start, data if stream else offset)


def _range_bytes(fd: int, item: _Range) -> bytes:
    """The bytes of range ``item``: its own in a stream, else read from the file open as ``fd``."""
    if not isinstance(item.data, int):
        return item.data
    return os.pread(fd, item.data - item.start, item.start)


def _decoded(path: Path, raw: bytes, offset: int, first: int) -> str:
    """``raw`` as UTF-8 text; it is the file's bytes from ``offset`` on, from line ``first``.

    Bytes that are not UTF-8 raise ValidationError naming the line and the
    file offset of the first bad byte.
    """
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = first + raw.count(b"\n", 0, exc.start)
        raise ValidationError(
            f"{path}: line {line}: not UTF-8 text: byte 0x{raw[exc.start]:02x} at offset "
            f"{offset + exc.start} ({exc.reason})") from None


def _first_line(path: Path, fd: int, ranges, past: bool, needs: str) -> tuple:
    """``(number, line, ranges)``: the first non-blank line of ``ranges``, read here, its
    number, and the ranges from the one that holds it on, that one cut to start at
    the line, or after it when ``past``.

    Without a non-blank line, raises ``ValidationError(needs)``.
    """
    for item in ranges:
        raw, at = _range_bytes(fd, item), 0  # at: the offset of line ``number`` in ``raw``
        for number in count(item.first):
            after = raw.find(b"\n", at) + 1 or len(raw)
            line = _decoded(path, raw[at:after], item.start + at, number).rstrip("\n")
            if line.strip():
                cut, first = (after, number + 1) if past else (at, number)
                data = item.data if isinstance(item.data, int) else raw[cut:]
                head = deque([_Range(first, item.start + cut, data)])
                return number, line, pushed_back(head, ranges)
            if after == len(raw):
                break
            at = after
    raise ValidationError(needs)


def _convert_range(file: _File, csv: bool, convert, item: _Range):
    """The checked column arrays ``convert`` makes of range ``item``'s rows, its
    non-blank lines, parsed as one block of CSV (when ``csv``) or JSON lines.

    They are empty for a range without rows, and None when the regular file at
    ``file.path`` is no longer the one scanned. A block that fails is converted
    again line by line, and the first line that fails raises ValidationError
    naming it.
    """
    raw = item.data
    if isinstance(raw, int):
        with open(file.path, "rb", buffering=0) as handle:
            info = os.fstat(handle.fileno())
            if (info.st_dev, info.st_ino) != file.identity:
                return None
            raw = _range_bytes(handle.fileno(), item)
    text = _decoded(file.name, raw, item.start, item.first)
    del raw
    if csv and "_" in text:  # float() reads digit-group underscores, which no cell may hold
        number = item.first + text.count("\n", 0, text.index("_"))
        raise ValidationError(f"{file.name}: line {number}: cell: '_' is not part of a number")
    lines = text.split("\n")
    rows = [line for line in lines if line.strip()]
    if not rows:
        return ()
    try:
        return convert(_split_cells(rows) if csv else _loads_block(rows))
    except _ROW_ERRORS:
        pass  # converted again line by line, to find the bad one
    parts = []
    for number, line in enumerate(lines, item.first):
        if line.strip():
            try:
                parts.append(convert(_split_cells([line]) if csv else _loads_line(line)))
            except _ROW_ERRORS as exc:  # a RowError's row is this line
                what = getattr(exc, "what", exc)
                raise ValidationError(f"{file.name}: line {number}: {what}") from None
    return [np.concatenate(cols) for cols in zip(*parts)]


def _read_table(path: Path, what: str, csv: bool, converter) -> list:
    """The checked column arrays of the table at ``path``, a range at a time.

    The table is CSV when ``csv`` is true, else JSON lines. Its first non-blank
    line fixes its shape: ``converter(line)`` gives the block converter, which
    turns rows split into cells or parsed as JSON into checked column arrays.
    That line is a CSV table's header; its rows are the non-blank lines after
    it, or all of them in JSON lines. Each block is copied into columns
    allocated once, with a row for each line a regular file's ranges hold;
    for a stream they grow in place by a quarter at a time, and are cut to
    the rows read at the end.
    """
    needs = (f"{what} file {path} needs "
             + ("a CSV header and at least one row" if csv else "at least one row"))
    with open(path, "rb", buffering=0) as handle:
        fd, info = handle.fileno(), os.fstat(handle.fileno())
        regular = stat.S_ISREG(info.st_mode)
        ranges = _ranges(handle, not regular)
        capacity = 0
        if regular:
            ranges = list(ranges)
            capacity = len(ranges) * BLOCK_ROWS
        number, line, ranges = _first_line(path, fd, iter(ranges), csv, needs)
        try:
            convert = converter(line)
        except _ROW_ERRORS as exc:
            _first_line(path, fd, ranges, True, needs)  # a table without rows says so first
            raise ValidationError(f"{path}: line {number}: {getattr(exc, 'what', exc)}") from None
        file = _File(path, os.path.abspath(path), (info.st_dev, info.st_ino))
        out, rows = [], 0
        for item, columns in map_in_order(partial(_convert_range, file, csv, convert), ranges,
                                          None if regular else 1):
            if columns is None:  # the file at the path was replaced after the scan
                columns = _convert_range(file, csv, convert,
                                         item._replace(data=_range_bytes(fd, item)))
            del item  # a stream's range of text, not held while the next is converted
            if not columns:
                continue
            n = len(columns[0])
            if not out:
                out = [np.empty((max(capacity, n),) + col.shape[1:], col.dtype) for col in columns]
            elif rows + n > len(out[0]):
                size = max(rows + n, len(out[0]) * 5 // 4)
                for col in out:
                    col.resize((size,) + col.shape[1:], refcheck=False)
            for col, part in zip(out, columns):
                col[rows : rows + n] = part
            rows += n
    if not rows:
        raise ValidationError(needs)
    for col in out:
        col.resize((rows,) + col.shape[1:], refcheck=False)
    return out


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


def _field(objs: list, key: str) -> list:
    try:
        return [obj[key] for obj in objs]
    except KeyError:
        raise ValidationError(f"missing field {key!r}") from None
    except TypeError:
        raise ValidationError("a record must be a JSON object") from None


def _prediction_columns(layout: _Layout, vectors, scalar, y, nulls=None) -> tuple:
    """One block's ``(vectors, scalar, y)`` checked by the core's rules for ``layout``, as
    it is read or before it is written.

    A corrected row's ``g`` is kept as written and its labels lie in 1..K+1, K+1
    the width of ``g``. ``y`` is None for a table without labels; it comes back
    0, which no label is, there and where ``nulls`` flags a row without one.
    """
    if y is None:
        y, nulls = np.zeros(np.size(scalar)), np.ones(np.size(scalar), dtype=bool)
    if not layout.corrected:
        return record_columns(vectors, scalar, y, nulls)
    g = simplex_rows("g", np.atleast_2d(reals_in("g", vectors, -math.inf)))
    y_hat, y = labels_in("y_hat", scalar, g.shape[1]), labels_in("y", y, g.shape[1], nulls)
    if not g.shape[0] == y_hat.size == y.size:
        raise ValidationError(f"g has {g.shape[0]} rows, y_hat {y_hat.size} and y {y.size}")
    return g, y_hat, y


def _json_converter(layout: _Layout, line: str):
    """The block converter of JSON lines of kind ``layout``; the first row, ``line``, fixes K."""
    vectors = numbers(layout.vector, _field(_loads_line(line), layout.vector))
    if vectors.ndim != 2:
        raise ValidationError(f"{layout.vector!r} must be a list of K numbers")
    return partial(_json_columns, layout, vectors.shape[1])


def _json_columns(layout: _Layout, k: int, objs: list) -> tuple:
    vectors = numbers(layout.vector, _field(objs, layout.vector))
    if vectors.shape[1:] != (k,):
        raise ValidationError(f"{layout.vector!r} must be a list of {k} numbers")
    scalar = numbers(layout.scalar, _field(objs, layout.scalar))
    y = numbers("y", [math.nan if obj.get("y") is None else obj["y"] for obj in objs])
    if scalar.ndim != 1 or y.ndim != 1:
        raise ValidationError(f"{layout.scalar!r} and 'y' must be numbers")
    return _prediction_columns(layout, vectors, scalar, y, np.isnan(y))  # NaN: no label


def _split_cells(lines: list) -> list:
    return [line.split(",") for line in lines]


def _csv_table(rows: list, columns: list, names: int) -> np.ndarray:
    """``columns`` of split CSV rows of ``names`` cells each, as an (n, len(columns)) array."""
    lengths = set(map(len, rows)) - {names}
    if lengths:
        raise ValidationError(f"a row has {lengths.pop()} cells, but the header has {names}")
    picked = list(map(itemgetter(*columns), rows))
    try:  # cells are text: float() reads "0.5", and no "true"
        return np.array(picked, dtype=float).reshape(len(rows), len(columns))
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"cell: {exc}") from None


def _csv_convert(layout: _Layout, k: int, columns: list, names: int, cells: list) -> tuple:
    table = _csv_table(cells, columns, names)
    return _prediction_columns(layout, table[:, :k], table[:, k],
                               table[:, k + 1] if len(columns) > k + 1 else None)


def _csv_columns(layout: _Layout, header: str):
    """The block converter of a CSV table of kind ``layout`` with this header line.

    The header is the table's schema: it names the vector columns in order,
    then the scalar, and optionally ``y``, each once, and nothing else.
    """
    names = [name.strip() for name in header.split(",")]
    twice = next((name for j, name in enumerate(names) if name in names[:j]), None)
    if twice is not None:
        raise ValidationError(f"CSV header names column {twice!r} twice")
    if layout.scalar not in names:
        raise ValidationError(f"CSV header must contain the {layout.scalar!r} column")
    k = names.index(layout.scalar)
    if names[:k] != [f"{layout.vector}{j + 1}" for j in range(k)]:
        raise ValidationError(f"CSV header must start with {layout.vector}1,{layout.vector}2,...")
    unknown = next((name for name in names[k + 1:] if name != "y"), None)
    if unknown is not None:
        raise ValidationError(
            f"CSV header names column {unknown!r}, which is not one of "
            f"{layout.vector}1,...,{layout.vector}{k},{layout.scalar}[,y]")
    columns = list(range(k + 1)) + ([names.index("y")] if "y" in names else [])
    return partial(_csv_convert, layout, k, columns, len(names))


def _read_predictions(path: PathLike, layout: _Layout) -> tuple:
    """The ``(vectors, scalar, y)`` columns of a JSONL, or by extension CSV, prediction table.

    The labels are int64, and ``y`` is None unless every row has one.
    """
    path = Path(path)
    csv = _is_csv(path)
    converter = partial(_csv_columns if csv else _json_converter, layout)
    vectors, scalar, y = _read_table(path, layout.name, csv, converter)
    return vectors, scalar, y if y.all() else None


def read_records(path: PathLike) -> RecordSet:
    """Read a prediction file (JSONL by default, CSV by extension)."""
    return RecordSet._holding(*_read_predictions(path, _RECORDS))


def read_corrected(path: PathLike) -> dict:
    """Read a corrected predictions file (JSONL by default, CSV by extension).

    Returns arrays ``g``, ``y_hat`` and ``y``, the last None unless every row
    has a label. Each ``g`` row must be a probability vector within
    ``SIMPLEX_TOL`` and each label must lie in 1..K+1, K+1 being the width of ``g``.
    """
    g, y_hat, y = _read_predictions(path, _CORRECTED)
    return {"g": g, "y_hat": y_hat, "y": y}


def _feature_columns(names: int, cells: list) -> tuple:
    return (reals_in("features", _csv_table(cells, range(names), names), -math.inf),)


def _feature_converter(header: str):
    """The block converter of a feature table; its header, the table's schema, is x1,...,xd."""
    names = [name.strip() for name in header.split(",")]
    wrong = next((j for j, name in enumerate(names) if name != f"x{j + 1}"), None)
    if wrong is not None:
        raise ValidationError(f"CSV header names column {names[wrong]!r} where x{wrong + 1} "
                              f"belongs; a feature header is x1,...,x{len(names)}")
    return partial(_feature_columns, len(names))


def read_features(path: PathLike) -> np.ndarray:
    """Read a feature CSV written by ``write_features``."""
    return _read_table(Path(path), "feature", True, _feature_converter)[0]


def _number_text(text: str) -> str:
    """``text``, which must hold no ``_``: ``int()`` and ``float()`` read digit-group
    underscores, which no JSON number may hold."""
    if "_" in text:
        raise ValueError(f"{text!r} is not a number: '_' is not part of one")
    return text


def _whole_text(text: str) -> int:
    return int(_number_text(text))


def _finite_float(text: str) -> float:
    value = float(_number_text(text))
    if not math.isfinite(value):
        raise ValidationError(f"{text} is not a finite number")
    return value


def write_json(path: PathLike, obj: dict) -> None:
    """Write ``obj`` as indented JSON; non-finite floats raise ValidationError."""
    text = _named(f"cannot write {path}", json.dumps, obj, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path: PathLike) -> dict:
    """Read a JSON file; NaN, Infinity and overflowing numbers raise ValidationError."""
    what = f"cannot parse JSON file {path}"
    text = _named(what, Path(path).read_text, encoding="utf-8")
    return _named(what, json.loads, text, parse_constant=_non_finite_constant,
                  parse_float=_finite_float)


# The truth file's fields in order, each with the type of its JSON value.
_TRUTH_JSON = dict(K=int, c=np.ndarray, rho_s=float, pi=np.ndarray, rho_t=float)


def write_truth(path: PathLike, c, rho_s: float, pi, rho_t: float) -> None:
    c, pi = (v.entries if isinstance(v, ProbabilityVector) else v for v in (c, pi))
    values = zip(_TRUTH_JSON.items(), (len(c), c, rho_s, pi, rho_t))
    obj = {key: _named(f"cannot write {path}", json_value, key, kind, value)
           for (key, kind), value in values}
    write_json(path, {key: np.asarray(value).tolist() for key, value in obj.items()})


def read_truth(path: PathLike) -> dict:
    """Read a truth file: integer ``K``, lists ``c`` and ``pi`` of K numbers and
    numbers ``rho_s`` and ``rho_t``; a missing or mistyped field raises ValidationError.
    """
    obj = read_json(path)
    what = f"truth file {path}"
    truth = json_fields(obj, what, _TRUTH_JSON)
    for key in ("c", "pi"):
        if truth[key].shape != (truth["K"],):
            raise ValidationError(f"{what} field {key!r} must be a list of {truth['K']} numbers")
    return obj


# The scenario file's fields in order, each with the type of its JSON value.
_SCENARIO_JSON = dict(
    k=int, feature_dim=int, class_means=np.ndarray, class_scales=np.ndarray, c=np.ndarray,
    rho_s=float, n_source=int, n_target=int, n_ood_ref=int, shift=str, r=float, seed=int,
    temperature=float,
)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    out = {key: getattr(config, key) for key in _SCENARIO_JSON}
    out.update(class_means=config.class_means.tolist(), class_scales=config.class_scales.tolist(),
               c=config.c.entries.tolist(), shift=config.shift.key())
    return out


def scenario_from_dict(obj: dict) -> ScenarioConfig:
    """Rebuild ``scenario_to_dict``'s config; fields with a default may be left out."""
    optional = [f.name for f in fields(ScenarioConfig) if f.default is not MISSING]
    values = json_fields(obj, "scenario", _SCENARIO_JSON, optional)
    values["shift"] = _named("scenario field 'shift'", ShiftSpec.parse, values["shift"])
    return ScenarioConfig(**values)


def parse_kv_file(path: PathLike) -> dict:
    """Parse a plain-text key = value configuration file ('#' starts a comment, no key twice)."""
    out = {}
    with open(path, "rb") as handle:
        text = _decoded(path, handle.read(), 0, 1)
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"cannot parse config line: {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in out:
            raise ValidationError(f"config key {key!r} is set more than once")
        out[key] = value.strip()
    return out


def _tokens(text: str) -> list:
    return text.replace(",", " ").split()


def _kv_numbers(text: str) -> np.ndarray:
    return np.array([_finite_float(tok) for tok in _tokens(text)])


def _kv_rows(text: str) -> np.ndarray:
    return np.array([_kv_numbers(row) for row in text.split(";")])


# The parser of each scenario config key's text; the keys are ``ring_config``'s parameters.
_KV_PARSERS = {
    **dict.fromkeys(("k", "seed", "feature_dim", "n_source", "n_target", "n_ood_ref"),
                    _whole_text),
    **dict.fromkeys(("rho_s", "r", "temperature", "radius", "scale", "ood_scale"), _finite_float),
    **dict.fromkeys(("c", "class_scales"), _kv_numbers),
    "class_means": _kv_rows,
    "shift": ShiftSpec.parse,
}


def scenario_from_kv(kv: dict) -> ScenarioConfig:
    """Build a scenario config from key-value pairs with ``ring_config``; only ``k`` is required.

    Omitted keys take ``ring_config``'s defaults. ``class_means`` holds rows
    separated by semicolons. An unknown key or a malformed value raises
    ValidationError naming the key.
    """
    unknown = [key for key in kv if key not in _KV_PARSERS]
    if unknown:
        raise ValidationError(f"unknown config key {unknown[0]!r}")
    values = {key: _named(f"config key {key!r}", parse, kv[key])
              for key, parse in _KV_PARSERS.items() if key in kv}
    if "k" not in values:
        raise ValidationError("scenario config is missing key 'k'")
    return ring_config(**values)


def _items(text: str) -> list:
    return [item.strip() for item in text.split(",") if item.strip()]


def sweep_from_kv(kv: dict) -> dict:
    """``run_sweep``'s arguments from a sweep config: the grid axes and the base scenario.

    ``shifts`` and ``methods`` are comma-separated; ``r_values`` and integer ``seeds`` are
    separated by commas or spaces. ``run_sweep`` checks the grid; a malformed number or an
    unknown key raises ValidationError naming the key here."""
    grid_keys = ("shifts", "r_values", "seeds", "methods")
    base = scenario_from_kv({key: value for key, value in kv.items() if key not in grid_keys})
    r_values = _named("config key 'r_values'", _kv_numbers, kv.get("r_values", "1.0"))
    seeds = [_named("config key 'seeds'", _whole_text, tok)
             for tok in _tokens(kv.get("seeds", "0"))]
    return dict(base=base, shifts=_items(kv.get("shifts", "none")), r_values=r_values.tolist(),
                seeds=seeds, methods=_items(kv.get("methods", "osls-mle,mlls")))
