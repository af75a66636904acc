"""The block-wise codec in ``osls.io`` against the row-loop codec it replaced.

The reference functions below are the previous row-at-a-time readers and
writers, kept verbatim: the new writers must produce the same bytes and the
new readers the same arrays on every valid file, while malformed and
non-finite input must raise ``ValidationError`` naming the line.
"""

import inspect
import io
import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Union

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osls import core
from osls import io as osls_io
from osls import pool as osls_pool
from osls.core import RecordSet, ValidationError
from osls.simulate import ring_config

from conftest import child_env, feed_fifo, join_fifo

# --- reference codec (the previous osls.io row loops, verbatim) -------------


PathLike = Union[str, Path]


def _is_csv(path: PathLike) -> bool:
    return str(path).lower().endswith(".csv")


def read_records(path: PathLike) -> RecordSet:
    """Read a prediction file (JSONL by default, CSV by extension)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        if _is_csv(path):
            return _records_from_csv(text)
        return _records_from_jsonl(text)
    except ValidationError:
        raise
    except (ValueError, KeyError, IndexError) as exc:
        raise ValidationError(f"cannot parse prediction file {path}: {exc}") from exc


def _records_from_jsonl(text: str) -> RecordSet:
    f_rows, h_vals, y_vals = [], [], []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        f_rows.append([float(v) for v in obj["f"]])
        h_vals.append(float(obj["h"]))
        y_vals.append(int(obj["y"]) if "y" in obj and obj["y"] is not None else None)
    if not f_rows:
        raise ValidationError("prediction file contains no records")
    y = None
    if all(v is not None for v in y_vals):
        y = np.array(y_vals, dtype=np.int64)
    return RecordSet(np.array(f_rows), np.array(h_vals), y)


def _records_from_csv(text: str) -> RecordSet:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValidationError("CSV prediction file needs a header and at least one row")
    header = [h.strip() for h in lines[0].split(",")]
    if "h" not in header:
        raise ValidationError("CSV header must contain an 'h' column")
    h_col = header.index("h")
    has_y = "y" in header
    y_col = header.index("y") if has_y else -1
    k = h_col
    if header[:k] != [f"f{j + 1}" for j in range(k)]:
        raise ValidationError("CSV header must start with f1,...,fK")
    f_rows, h_vals, y_vals = [], [], []
    for line in lines[1:]:
        cells = [cell.strip() for cell in line.split(",")]
        f_rows.append([float(v) for v in cells[:k]])
        h_vals.append(float(cells[h_col]))
        if has_y:
            y_vals.append(int(float(cells[y_col])))
    y = np.array(y_vals, dtype=np.int64) if has_y else None
    return RecordSet(np.array(f_rows), np.array(h_vals), y)


def write_records(path: PathLike, records: RecordSet) -> None:
    """Write a prediction file; format chosen by extension."""
    path = Path(path)
    if _is_csv(path):
        header = [f"f{j + 1}" for j in range(records.k)] + ["h"]
        if records.y is not None:
            header.append("y")
        lines = [",".join(header)]
        for i in range(len(records)):
            cells = [repr(float(v)) for v in records.f[i]] + [repr(float(records.h[i]))]
            if records.y is not None:
                cells.append(str(int(records.y[i])))
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    lines = []
    for i in range(len(records)):
        obj = {"f": [float(v) for v in records.f[i]], "h": float(records.h[i])}
        if records.y is not None:
            obj["y"] = int(records.y[i])
        lines.append(json.dumps(obj))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_corrected(
    path: PathLike,
    posteriors: np.ndarray,
    labels: np.ndarray,
    y: Optional[np.ndarray] = None,
) -> None:
    """Write corrected (K+1)-class posteriors with argmax labels."""
    path = Path(path)
    posteriors = np.atleast_2d(np.asarray(posteriors, dtype=float))
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if _is_csv(path):
        header = [f"g{j + 1}" for j in range(posteriors.shape[1])] + ["y_hat"]
        if y is not None:
            header.append("y")
        lines = [",".join(header)]
        for i in range(posteriors.shape[0]):
            cells = [repr(float(v)) for v in posteriors[i]] + [str(int(labels[i]))]
            if y is not None:
                cells.append(str(int(y[i])))
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    lines = []
    for i in range(posteriors.shape[0]):
        obj = {"g": [float(v) for v in posteriors[i]], "y_hat": int(labels[i])}
        if y is not None:
            obj["y"] = int(y[i])
        lines.append(json.dumps(obj))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_corrected(path: PathLike) -> dict:
    """Read a corrected predictions file into arrays g, y_hat and optional y."""
    path = Path(path)
    g_rows, y_hat, y_vals = [], [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        g_rows.append([float(v) for v in obj["g"]])
        y_hat.append(int(obj["y_hat"]))
        y_vals.append(int(obj["y"]) if "y" in obj and obj["y"] is not None else None)
    if not g_rows:
        raise ValidationError(f"corrected file {path} contains no records")
    y = None
    if all(v is not None for v in y_vals):
        y = np.array(y_vals, dtype=np.int64)
    return {"g": np.array(g_rows), "y_hat": np.array(y_hat, dtype=np.int64), "y": y}


def write_features(path: PathLike, x: np.ndarray) -> None:
    """Write raw feature rows as CSV with header x1,...,xd."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lines = [",".join(f"x{j + 1}" for j in range(x.shape[1]))]
    for row in x:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_features(path: PathLike) -> np.ndarray:
    lines = [ln.strip() for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValidationError(f"feature file {path} needs a header and at least one row")
    try:
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise ValidationError(f"cannot parse feature file {path}: {exc}") from exc
    return np.array(rows)


# --- generated inputs --------------------------------------------------------

BLOCK = osls_io.BLOCK_ROWS
SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.5e-310, 1e-05, 1e16, 1.7976931348623157e308,
    0.1 + 0.2, 1 / 3, -123456789.12345679,
)
finite_floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def tables(draw):
    """(n rows, k columns, a pool of drawn floats, a numpy seed)."""
    n = draw(st.sampled_from(SIZES))
    k = draw(st.integers(1, 12))
    pool = np.array(draw(st.lists(finite_floats, min_size=1, max_size=16)))
    return n, k, pool, draw(st.integers(0, 2**32 - 1))


def _fill(rng, pool, shape):
    """Entries from ``pool`` mixed with 17-significant-digit values over 60 decades."""
    wide = rng.random(shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    return np.where(rng.random(shape) < 0.5, rng.choice(pool, size=shape), wide)


def _at_every_size(layouts_=None):
    """Explicit examples: each block-boundary size at K=3, with one reader layout per size."""
    def decorate(test):
        for i, n in enumerate(SIZES):
            args = [(n, 3, np.array(SPECIAL_FLOATS), i)]
            if layouts_:
                args.append(layouts_[i])
            test = example(*args)(test)
        return test
    return decorate


class RawRecords(SimpleNamespace):
    """A RecordSet's attributes without its validation, so any finite float reaches a writer."""

    def __len__(self):
        return self.h.size


def _writer_args(kind, with_y, n, k, pool, rng):
    y = rng.integers(-3, 10**6, n) if with_y else None
    if kind == "records":
        return (RawRecords(f=_fill(rng, pool, (n, k)), h=_fill(rng, pool, n), y=y, k=k),)
    if kind == "corrected":  # rows a corrected file may hold: probability rows, labels in 1..k
        g = _prediction_rows(rng, n, k, pool)[0]
        return (g, rng.integers(1, k + 1, n), None if y is None else y % k + 1)
    return (_fill(rng, pool, (n, k)),)


WRITERS = {
    "records": (write_records, osls_io.write_records),
    "corrected": (write_corrected, osls_io.write_corrected),
    "features": (write_features, osls_io.write_features),
}
WRITER_CASES = [
    (kind, ext, with_y)
    for kind in ("records", "corrected")
    for ext in (".jsonl", ".csv")
    for with_y in (False, True)
] + [("features", ".csv", False)]


class TestWritersMatchReference:
    @pytest.mark.parametrize("kind,ext,with_y", WRITER_CASES)
    @settings(max_examples=4, deadline=None)
    @given(tables())
    @_at_every_size()
    def test_same_bytes(self, tmp_path_factory, kind, ext, with_y, table):
        n, k, pool, seed = table
        args = _writer_args(kind, with_y, n, k, pool, np.random.default_rng(seed))
        ref_writer, new_writer = WRITERS[kind]
        out = tmp_path_factory.mktemp("w")
        ref_writer(out / f"ref{ext}", *args)
        new_writer(out / f"new{ext}", *args)
        assert (out / f"new{ext}").read_bytes() == (out / f"ref{ext}").read_bytes()


# --- readers ----------------------------------------------------------------

Y_MODES = ("all", "float", "none", "null", "mixed")


def _y_cell(rng, mode, label):
    """The JSON text of ``"y"`` for one row, or None to leave the key out."""
    if mode == "all" or (mode == "mixed" and rng.random() < 0.6):
        return json.dumps(int(label))
    if mode == "float":
        return json.dumps(float(label))
    if mode == "null" or rng.random() < 0.5:
        return "null"
    return None


def _json_line(rng, fields, spaced, shuffled, extra):
    """One JSON object line from (key, JSON text) pairs, in one of several layouts."""
    fields = list(fields)
    if extra:
        fields.append(("note", json.dumps({"id": int(rng.integers(1000)), "tags": ["a", "]"]})))
    if shuffled:
        fields = [fields[i] for i in rng.permutation(len(fields))]
    if spaced:
        body = " ,\t".join(f' {json.dumps(key)} :  {text} ' for key, text in fields)
        return f"  {{ {body} }} "
    return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in fields) + "}"


def _vector_text(values, spaced):
    return json.dumps(values, separators=(" ,  ", ":") if spaced else (", ", ": "))


def _file_text(rng, lines, crlf, blanks):
    out = []
    for line in lines:
        if blanks and rng.random() < 0.05:
            out.append(rng.choice(["", "   ", "\t"]))
        out.append(line)
    return ("\r\n" if crlf else "\n").join(out) + ("\r\n" if crlf else "\n")


LAYOUT_KEYS = ("crlf", "blanks", "spaced", "shuffled", "extra")
# One layout per size for the explicit examples; together they set every flag and y mode.
EXPLICIT_LAYOUTS = [
    dict(zip(LAYOUT_KEYS, flags), y_mode=y_mode)
    for flags, y_mode in (
        ((True, True, True, True, True), "mixed"),
        ((False, False, False, False, False), "all"),
        ((True, False, True, False, True), "float"),
        ((False, True, False, True, False), "none"),
        ((True, True, False, False, True), "null"),
    )
]
layouts = st.fixed_dictionaries({
    "crlf": st.booleans(), "blanks": st.booleans(), "spaced": st.booleans(),
    "shuffled": st.booleans(), "extra": st.booleans(), "y_mode": st.sampled_from(Y_MODES),
})


def _prediction_rows(rng, n, k, pool):
    f = rng.dirichlet(np.ones(k), n)
    onehot = rng.random(n) < 0.1
    f[onehot] = np.eye(k)[rng.integers(0, k, onehot.sum())]
    h = np.where(rng.random(n) < 0.2, rng.choice([0.0, 1.0, 5e-324, 1e-05, 1 / 3], n),
                 rng.random(n))
    return f, h, rng.integers(1, k + 2, n)


def _assert_same_bits(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


class TestReadersMatchReference:
    @settings(max_examples=5, deadline=None)
    @given(tables(), layouts)
    @_at_every_size(EXPLICIT_LAYOUTS)
    def test_records_jsonl(self, tmp_path_factory, table, layout):
        n, k, pool, seed = table
        rng = np.random.default_rng(seed)
        f, h, y = _prediction_rows(rng, n, k, pool)
        lines = []
        for i in range(n):
            f_text = ("[" + ", ".join("1" if v == 1.0 else "0" for v in f[i]) + "]"
                      if f[i].max() == 1.0 else _vector_text(f[i].tolist(), layout["spaced"]))
            fields = [("f", f_text), ("h", json.dumps(float(h[i])))]
            y_text = _y_cell(rng, layout["y_mode"], y[i])
            if y_text is not None:
                fields.append(("y", y_text))
            lines.append(_json_line(rng, fields, layout["spaced"], layout["shuffled"],
                                    layout["extra"]))
        path = tmp_path_factory.mktemp("r") / "records.jsonl"
        path.write_bytes(_file_text(rng, lines, layout["crlf"], layout["blanks"]).encode())
        new, ref = osls_io.read_records(path), read_records(path)
        _assert_same_bits(new.f, ref.f)
        _assert_same_bits(new.h, ref.h)
        assert (new.y is None) == (ref.y is None)
        if ref.y is not None:
            _assert_same_bits(new.y, ref.y)

    @settings(max_examples=5, deadline=None)
    @given(tables(), layouts)
    @_at_every_size(EXPLICIT_LAYOUTS)
    def test_corrected_jsonl(self, tmp_path_factory, table, layout):
        n, k, pool, seed = table
        rng = np.random.default_rng(seed)
        g = _prediction_rows(rng, n, k, pool)[0]  # the reader accepts probability rows only
        y_hat, y = rng.integers(1, k + 1, n), rng.integers(1, k + 1, n)
        lines = []
        for i in range(n):
            fields = [("g", _vector_text(g[i].tolist(), layout["spaced"])),
                      ("y_hat", json.dumps(int(y_hat[i])))]
            y_text = _y_cell(rng, layout["y_mode"], y[i])
            if y_text is not None:
                fields.append(("y", y_text))
            lines.append(_json_line(rng, fields, layout["spaced"], layout["shuffled"],
                                    layout["extra"]))
        path = tmp_path_factory.mktemp("r") / "corrected.jsonl"
        path.write_bytes(_file_text(rng, lines, layout["crlf"], layout["blanks"]).encode())
        new, ref = osls_io.read_corrected(path), read_corrected(path)
        _assert_same_bits(new["g"], ref["g"])
        _assert_same_bits(new["y_hat"], ref["y_hat"])
        assert (new["y"] is None) == (ref["y"] is None)
        if ref["y"] is not None:
            _assert_same_bits(new["y"], ref["y"])

    @settings(max_examples=5, deadline=None)
    @given(tables(), layouts)
    @_at_every_size(EXPLICIT_LAYOUTS)
    def test_csv(self, tmp_path_factory, table, layout):
        n, k, pool, seed = table
        rng = np.random.default_rng(seed)
        f, h, y = _prediction_rows(rng, n, k, pool)
        x = _fill(rng, pool, (n, k))
        pad = " \t" if layout["spaced"] else ""
        with_y = layout["y_mode"] in ("all", "float")

        def row(cells):
            return ",".join(f"{pad}{cell}{pad}" for cell in cells)

        header = [f"f{j + 1}" for j in range(k)] + ["h"] + (["y"] if with_y else [])
        records = [row(header)] + [
            row([repr(v) for v in f[i].tolist()] + [repr(float(h[i]))]
                + ([str(y[i]) if layout["y_mode"] == "all" else repr(float(y[i]))]
                   if with_y else []))
            for i in range(n)
        ]
        features = [row(f"x{j + 1}" for j in range(k))] + [
            row(repr(v) for v in x[i].tolist()) for i in range(n)
        ]
        out = tmp_path_factory.mktemp("r")
        (out / "records.csv").write_bytes(
            _file_text(rng, records, layout["crlf"], layout["blanks"]).encode())
        (out / "x.csv").write_bytes(
            _file_text(rng, features, layout["crlf"], layout["blanks"]).encode())
        new, ref = osls_io.read_records(out / "records.csv"), read_records(out / "records.csv")
        _assert_same_bits(new.f, ref.f)
        _assert_same_bits(new.h, ref.h)
        assert (new.y is None) == (ref.y is None)
        if ref.y is not None:
            _assert_same_bits(new.y, ref.y)
        _assert_same_bits(osls_io.read_features(out / "x.csv"), read_features(out / "x.csv"))

    @pytest.mark.parametrize("with_y", (False, True))
    @settings(max_examples=5, deadline=None)
    @given(tables())
    @_at_every_size()
    def test_corrected_csv_matches_jsonl(self, tmp_path_factory, with_y, table):
        n, k, pool, seed = table
        rng = np.random.default_rng(seed)
        g, y_hat = _prediction_rows(rng, n, k, pool)[0], rng.integers(1, k + 1, n)
        y = rng.integers(1, k + 1, n) if with_y else None
        out = tmp_path_factory.mktemp("r")
        osls_io.write_corrected(out / "c.csv", g, y_hat, y)
        osls_io.write_corrected(out / "c.jsonl", g, y_hat, y)
        from_csv = osls_io.read_corrected(out / "c.csv")
        from_jsonl = osls_io.read_corrected(out / "c.jsonl")
        _assert_same_bits(from_csv["g"], from_jsonl["g"])
        _assert_same_bits(from_csv["y_hat"], from_jsonl["y_hat"])
        if y is None:
            assert from_csv["y"] is None and from_jsonl["y"] is None
        else:
            _assert_same_bits(from_csv["y"], from_jsonl["y"])


def _columns(table) -> list:
    """The arrays a reader returned, in order, leaving out a missing ``y``."""
    if isinstance(table, RecordSet):
        table = {"f": table.f, "h": table.h, "y": table.y}
    if isinstance(table, dict):
        return [col for col in table.values() if col is not None]
    return [table]


class TestPoolMatchesInProcess:
    """Tables of three blocks, converted on the block pool and in this process."""

    @pytest.mark.parametrize("kind,ext,with_y", WRITER_CASES)
    def test_same_bytes_and_arrays(self, tmp_path, monkeypatch, pools, kind, ext, with_y):
        n, k = 2 * BLOCK + 3, 4
        rng = np.random.default_rng(7)
        f, h, y = _prediction_rows(rng, n, k, np.array(SPECIAL_FLOATS))
        y = y if with_y else None
        write, read, args = {
            "records": (osls_io.write_records, osls_io.read_records, (RecordSet(f, h, y),)),
            "corrected": (osls_io.write_corrected, osls_io.read_corrected,
                          (f, rng.integers(1, k + 1, n), None if y is None else y.clip(1, k))),
            "features": (osls_io.write_features, osls_io.read_features,
                         (_fill(rng, np.array(SPECIAL_FLOATS), (n, k)),)),
        }[kind]
        write(tmp_path / f"pool{ext}", *args)
        assert len(pools) == 1 and pools[0] is not None
        _in_process(monkeypatch, write, tmp_path / f"local{ext}", *args)
        assert (tmp_path / f"pool{ext}").read_bytes() == (tmp_path / f"local{ext}").read_bytes()

        pooled = _columns(read(tmp_path / f"pool{ext}"))
        assert len(pools) == 2 and pools[1] == pools[0]
        local = _columns(_in_process(monkeypatch, read, tmp_path / f"pool{ext}"))
        assert len(pooled) == len(local) == 1 + (kind != "features") + with_y
        for new, ref in zip(pooled, local):
            _assert_same_bits(new, ref)


class TestRowsCheckedOnce:
    """A table's rows meet the row rules once, in the process that converts their range."""

    @pytest.mark.parametrize("pooled", [True, False], ids=["pool", "in-process"])
    @pytest.mark.parametrize("name", ["t.jsonl", "t.csv"])
    def test_read_records_checks_each_row_once(self, tmp_path, monkeypatch, pools, name,
                                               pooled):
        n = 2 * BLOCK + 3
        rng = np.random.default_rng(5)
        path, log = tmp_path / name, tmp_path / "rows.log"
        osls_io.write_records(path, RecordSet(*_prediction_rows(rng, n, 3, np.array([0.5]))))
        real = core.on_simplex

        def spy(rows, tol=core.SIMPLEX_TOL):
            with open(log, "a", encoding="utf-8") as out:  # workers append too
                out.write(f"{len(rows)}\n")
            return real(rows, tol)

        # Wherever the simplex rule is bound; workers forked after this inherit the spy.
        for module in (core, osls_io):
            if hasattr(module, "on_simplex"):
                monkeypatch.setattr(module, "on_simplex", spy)
        osls_pool._close_pool()
        try:
            read = osls_io.read_records
            records = read(path) if pooled else _in_process(monkeypatch, read, path)
        finally:
            osls_pool._close_pool()  # no later read may reach a worker that holds the spy
        assert len(records) == n and all(pools)
        assert sum(map(int, log.read_text(encoding="utf-8").split())) == n


# Pieces of text that hold "\n", the only line end, and each other line break
# ``str.splitlines`` knows, next to characters of one to four UTF-8 bytes.
LINE_PIECES = ("a", "é", "€", "\U0001F600", " ", "\r", "\n", "\r\n", "\x0b", "\x0c", "\x1c",
               "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _cut(path_or_text, stream: bool) -> list:
    """The ranges ``osls.io`` cuts a file, or a stream of ``text``'s bytes, into."""
    if stream:
        return list(osls_io._ranges(io.BytesIO(path_or_text.encode("utf-8")), True))
    with open(path_or_text, "rb", buffering=0) as handle:
        return list(osls_io._ranges(handle, False))


class TestRanges:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(LINE_PIECES), max_size=40), st.integers(1, 9),
           st.integers(1, 9))
    @example(["a", "\r", "\n", "b"], 1, 2)  # a scan step ends inside "\r\n"
    @example(["\r"], 1, 1)
    @example(["a", "\r"], 2, 1)
    @example([], 1, 1)
    def test_ranges_split_at_newlines(self, tmp_path_factory, pieces, block_rows, scan_bytes):
        text = "".join(pieces)
        raw = text.encode("utf-8")
        path = tmp_path_factory.mktemp("l") / "t.txt"
        path.write_bytes(raw)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(osls_io, "BLOCK_ROWS", block_rows)
            patch.setattr(osls_io, "_SCAN_BYTES", scan_bytes)
            ranges, streamed = _cut(path, False), _cut(text, True)
        # The stream is cut where the file is, and its ranges carry their bytes.
        assert [r.start for r in streamed] == [r.start for r in ranges]
        assert [r.data for r in streamed] == [raw[r.start : r.data] for r in ranges]
        ends = [r.data for r in ranges]
        assert [r.start for r in ranges] == [0] + ends[:-1] and ends[-1] == len(raw)
        for r in ranges[:-1]:
            assert raw[r.start : r.data].count(b"\n") == block_rows and raw[r.data - 1] == 10
        # The i-th range starts at line 1 + i * block_rows, in the file and the stream.
        firsts = [1 + i * block_rows for i in range(len(ranges))]
        assert [r.first for r in ranges] == [r.first for r in streamed] == firsts
        numbered = []
        for i, r in enumerate(streamed):
            lines = r.data.decode("utf-8").split("\n")
            if i < len(streamed) - 1:  # its last b"\n" ends its last line
                assert len(lines) == block_rows + 1 and lines.pop() == ""
            numbered += enumerate(lines, r.first)
        assert numbered == list(enumerate(text.split("\n"), 1))


class TestLineEnds:
    """A line ends at "\\n" only; JSON may hold other breaks where it allows whitespace."""

    def test_other_breaks_inside_json_lines(self, tmp_path, monkeypatch, pools):
        # Raw U+2028, U+2029 and U+0085 in a string, "\r" between tokens and
        # "\r\n" line ends, in the first row too, which fixes K.
        rng = np.random.default_rng(3)
        f, h, y = _prediction_rows(rng, 2 * BLOCK + 3, 3, np.array(SPECIAL_FLOATS))
        plain, odd = tmp_path / "plain.jsonl", tmp_path / "odd.jsonl"
        osls_io.write_records(plain, RecordSet(f, h, y))
        odd.write_text("".join(
            line.replace(", ", ",\r ")[:-1] + ', "note": "a\u2028b\u2029c\x85d"}\r\n'
            for line in plain.read_text(encoding="utf-8").split("\n")[:-1]), encoding="utf-8")
        expected = _columns(osls_io.read_records(plain))
        for got in (osls_io.read_records(odd), _in_process(monkeypatch, osls_io.read_records, odd)):
            for new, ref in zip(_columns(got), expected):
                _assert_same_bits(new, ref)
        assert len(pools) == 3 and all(pools)


# --- malformed and non-finite input ------------------------------------------

GOOD_RECORD = '{"f": [0.5, 0.5], "h": 0.5, "y": 1}'
BAD_RECORDS = {
    "h null": ['{"f": [0.5, 0.5], "h": null, "y": 1}'],
    "not an object": ["[0.5, 0.5]"],
    "fractional label": ['{"f": [0.5, 0.5], "h": 0.5, "y": 1.7}'],
    "string label": ['{"f": [0.5, 0.5], "h": 0.5, "y": "x"}'],
    "infinite label": ['{"f": [0.5, 0.5], "h": 0.5, "y": 1e400}'],
    "NaN": ['{"f": [0.5, 0.5], "h": NaN, "y": 1}'],
    "Infinity": ['{"f": [0.5, Infinity], "h": 0.5}'],
    "-Infinity": ['{"f": [0.5, 0.5], "h": -Infinity}'],
    "overflow": ['{"f": [0.5, 0.5], "h": 1e400}'],
    "NaN in an extra key": ['{"f": [0.5, 0.5], "h": 0.5, "note": [NaN]}'],
    "missing h": ['{"f": [0.5, 0.5]}'],
    "missing f": ['{"h": 0.5}'],
    "f not a list": ['{"f": 0.5, "h": 0.5}'],
    "f nested": ['{"f": [[0.5], [0.5]], "h": 0.5}'],
    "f of strings": ['{"f": ["a", "b"], "h": 0.5}'],
    "h a list": ['{"f": [0.5, 0.5], "h": [0.5]}'],
    "wrong width": ['{"f": [0.2, 0.3, 0.5], "h": 0.5}'],
    "truncated": ['{"f": [0.5, 0.5], "h": 0.5'],
    "two values": [GOOD_RECORD + " " + GOOD_RECORD],
    # Lines that only parse when joined: each alone is not one JSON value.
    "split object": ['{"f": [0.5, 0.5], "h": 0.5}, {"f": [0.5, 0.5], "h": 0.5, "z": [{}',
                     '{}]}'],
    "split string": ['{"f": [0.5, 0.5], "h": 0.5, "z": "a', 'b"}'],
    "f off the simplex": ['{"f": [0.5, 0.6], "h": 0.5, "y": 1}'],
    "negative f": ['{"f": [-0.1, 1.1], "h": 0.5}'],
    "h above one": ['{"f": [0.5, 0.5], "h": 1.9, "y": 1}'],
    "negative h": ['{"f": [0.5, 0.5], "h": -0.2}'],
    "label zero": ['{"f": [0.5, 0.5], "h": 0.5, "y": 0}'],
    "label above K+1": ['{"f": [0.5, 0.5], "h": 0.5, "y": 4}'],
}
GOOD_CSV = "0.5,0.5,0.5,1"


class BadHeader(str):
    """A CSV case whose header, not a row, is at fault, so the read fails at line 1."""


def _csv_case(header: str, bad: str) -> tuple:
    """(header, bad rows, line of the error or None for the first bad row) of a CSV case."""
    return (bad, [], 1) if isinstance(bad, BadHeader) else (header, [bad], None)


BAD_CSV = {
    "unknown column": BadHeader("f1,f2,h,label"),
    "unknown column after y": BadHeader("f1,f2,h,y,z"),
    "y twice": BadHeader("f1,f2,h,y,y"),
    "h twice": BadHeader("f1,f2,h,h,y"),
    "nan": "nan,0.5,0.5,1", "inf": "0.5,0.5,inf,1", "overflow": "0.5,0.5,1e999,1",
    "fractional label": "0.5,0.5,0.5,1.7", "short row": "0.5,0.5,0.5",
    "not a number": "0.5,abc,0.5,1", "empty cell": "0.5,,0.5,1", "long row": "0.5,0.5,0.9,1,7",
    "f off the simplex": "0.5,0.6,0.5,1", "h above one": "0.5,0.5,1.9,1",
    "label above K+1": "0.5,0.5,0.5,4",
}
GOOD_CORRECTED = '{"g": [0.2, 0.3, 0.5], "y_hat": 3, "y": 2}'
BAD_CORRECTED = {
    "fractional y_hat": '{"g": [0.2, 0.3, 0.5], "y_hat": 1.5}',
    "missing y_hat": '{"g": [0.2, 0.3, 0.5], "y": 2}',
    "NaN in g": '{"g": [0.2, NaN, 0.5], "y_hat": 3}',
    "infinite y": '{"g": [0.2, 0.3, 0.5], "y_hat": 3, "y": Infinity}',
    "wrong width": '{"g": [0.2, 0.8], "y_hat": 3}',
    "g off the simplex": '{"g": [7.0, -3.0, 0.5], "y_hat": 9, "y": 9}',
    "g sums below one": '{"g": [0.2, 0.3, 0.4], "y_hat": 3}',
    "negative g": '{"g": [-0.1, 0.6, 0.5], "y_hat": 2}',
    "y_hat zero": '{"g": [0.2, 0.3, 0.5], "y_hat": 0}',
    "y_hat above K+1": '{"g": [0.2, 0.3, 0.5], "y_hat": 4}',
    "y above K+1": '{"g": [0.2, 0.3, 0.5], "y_hat": 3, "y": 4}',
    "negative y": '{"g": [0.2, 0.3, 0.5], "y_hat": 3, "y": -1}',
}
GOOD_CORRECTED_CSV = "0.2,0.3,0.5,3,2"
BAD_CORRECTED_CSV = {
    "nan in g": "0.2,nan,0.5,3,2", "overflow": "0.2,0.3,1e999,3,2",
    "fractional y_hat": "0.2,0.3,0.5,1.5,2", "infinite y": "0.2,0.3,0.5,3,inf",
    "short row": "0.2,0.3,0.5,3", "not a number": "0.2,0.3,0.5,x,2", "empty cell": "0.2,,0.5,3,2",
    "g off the simplex": "7.0,-3.0,0.5,9,9", "g sums below one": "0.2,0.3,0.4,3,2",
    "y_hat zero": "0.2,0.3,0.5,0,2", "y above K+1": "0.2,0.3,0.5,3,4",
    "long row": "0.2,0.3,0.5,3,2,7",
    "unknown column": BadHeader("g1,g2,g3,y_hat,label"),
    "y_hat twice": BadHeader("g1,g2,g3,y_hat,y_hat"),
}
GOOD_FEATURE = "0.25,-1.5"
BAD_FEATURES = {"nan": "nan,1", "short row": "1", "not a number": "1,abc", "overflow": "1e999,0",
                "long row": "1,2,3"}


def _with_bad_line(tmp_path, name, header, good, bad_lines, before):
    """A file with ``before`` good rows, a blank line, ``bad_lines``, and a good row.

    Returns the path and the 1-based number of the first bad line.
    """
    lines = ([header] if header else []) + [good] * before + [""] + bad_lines + [good]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, len(lines) - len(bad_lines)


# After one good row (the first row sets the width K), in the second block,
# and in the third, where the reader runs on the block pool.
POSITIONS = (1, BLOCK + 5, 2 * BLOCK + 5)


def _in_process(monkeypatch, call, *args):
    """``call(*args)`` with every block converted in this process."""
    with monkeypatch.context() as patch:
        patch.setattr(osls_pool, "_pool", lambda workers: None)
        return call(*args)


def _raises_at(monkeypatch, pools, read, path, line):
    """``read(path)`` fails at ``line``, with the same message on the pool and in process."""
    with pytest.raises(ValidationError, match=f"line {line}: ") as pooled:
        read(path)
    assert all(pools) and len(pools) == (line > BLOCK)
    with pytest.raises(ValidationError) as in_process:
        _in_process(monkeypatch, read, path)
    assert str(pooled.value) == str(in_process.value)


class TestMalformedInput:
    @pytest.mark.parametrize("before", POSITIONS)
    @pytest.mark.parametrize("case", sorted(BAD_RECORDS))
    def test_records_jsonl(self, tmp_path, monkeypatch, pools, case, before):
        path, line = _with_bad_line(tmp_path, "t.jsonl", None, GOOD_RECORD, BAD_RECORDS[case],
                                    before)
        _raises_at(monkeypatch, pools, osls_io.read_records, path, line)

    @pytest.mark.parametrize("before", POSITIONS)
    @pytest.mark.parametrize("case", sorted(BAD_CSV))
    def test_records_csv(self, tmp_path, monkeypatch, pools, case, before):
        header, bad, at = _csv_case("f1,f2,h,y", BAD_CSV[case])
        path, line = _with_bad_line(tmp_path, "t.csv", header, GOOD_CSV, bad, before)
        _raises_at(monkeypatch, pools, osls_io.read_records, path, at or line)

    @pytest.mark.parametrize("before", POSITIONS)
    @pytest.mark.parametrize("case", sorted(BAD_CORRECTED))
    def test_corrected(self, tmp_path, monkeypatch, pools, case, before):
        path, line = _with_bad_line(tmp_path, "c.jsonl", None, GOOD_CORRECTED,
                                    [BAD_CORRECTED[case]], before)
        _raises_at(monkeypatch, pools, osls_io.read_corrected, path, line)

    @pytest.mark.parametrize("before", POSITIONS)
    @pytest.mark.parametrize("case", sorted(BAD_CORRECTED_CSV))
    def test_corrected_csv(self, tmp_path, monkeypatch, pools, case, before):
        header, bad, at = _csv_case("g1,g2,g3,y_hat,y", BAD_CORRECTED_CSV[case])
        path, line = _with_bad_line(tmp_path, "c.csv", header, GOOD_CORRECTED_CSV, bad, before)
        _raises_at(monkeypatch, pools, osls_io.read_corrected, path, at or line)

    @pytest.mark.parametrize("header", ("g1,g2,g3,y", "g1,g3,g2,y_hat", ""))
    def test_corrected_csv_header(self, tmp_path, header):
        path = tmp_path / "c.csv"
        path.write_text(header + "\n" + GOOD_CORRECTED_CSV + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="CSV"):
            osls_io.read_corrected(path)

    @pytest.mark.parametrize("read,header,row,named", [
        (osls_io.read_records, "f1,f2,h,label", "0.5,0.5,0.5,1", "column 'label', which is not"),
        (osls_io.read_records, "f1,f2,h,y,z", "0.5,0.5,0.5,1,abc", "column 'z', which is not"),
        (osls_io.read_records, " f1,f2,h , y,h", "0.5,0.5,0.5,1,0.5", "column 'h' twice"),
        (osls_io.read_corrected, "g1,g2,g3,y_hat,y,g9", "0.2,0.3,0.5,3,2,1",
         "column 'g9', which is not one of g1,...,g3,y_hat[,y]"),
        (osls_io.read_features, "foo,foo", "1,2", "column 'foo' where x1 belongs"),
        (osls_io.read_features, "x1,x1", "1,2", "column 'x1' where x2 belongs"),
        (osls_io.read_features, "x2,x1", "1,2", "column 'x2' where x1 belongs"),
        (osls_io.read_features, "x1,x2,y", "1,2,3", "column 'y' where x3 belongs"),
    ])
    def test_csv_header_names_file_and_column(self, tmp_path, read, header, row, named):
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n{row}\n{row}\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            read(path)
        assert str(err.value).startswith(f"{path}: line 1: CSV header ")
        assert named in str(err.value)

    @pytest.mark.parametrize("before", POSITIONS)
    @pytest.mark.parametrize("case", sorted(BAD_FEATURES))
    def test_features(self, tmp_path, monkeypatch, pools, case, before):
        path, line = _with_bad_line(tmp_path, "x.csv", "x1,x2", GOOD_FEATURE,
                                    [BAD_FEATURES[case]], before)
        _raises_at(monkeypatch, pools, osls_io.read_features, path, line)

    @pytest.mark.parametrize("read,good,wide", [
        (osls_io.read_records, GOOD_RECORD, '{"f": [0.2, 0.3, 0.5], "h": 0.5, "y": 1}'),
        (osls_io.read_corrected, GOOD_CORRECTED, '{"g": [0.5, 0.5], "y_hat": 1}'),
    ])
    def test_width_change_in_a_later_block(self, tmp_path, monkeypatch, pools, read, good,
                                           wide):
        # The third block alone parses, at a width the first two did not have.
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join([good] * 2 * BLOCK + [wide] * BLOCK) + "\n", encoding="utf-8")
        _raises_at(monkeypatch, pools, read, path, 2 * BLOCK + 1)
        assert "must be a list of" in str(pytest.raises(ValidationError, read, path).value)

    def test_integral_float_labels_accepted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"f": [0.5, 0.5], "h": 0.5, "y": 3.0}\n', encoding="utf-8")
        assert osls_io.read_records(path).y.tolist() == [3]

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"f": [0.5, 0.5], "h": 0.5, "y": "\xff"}\n')
        with pytest.raises(ValidationError, match="not UTF-8"):
            osls_io.read_records(path)

    def test_not_utf8_in_a_late_chunk(self, tmp_path, pools):
        # The bad byte lies past the first scan step, in a range a worker reads.
        path = tmp_path / "t.jsonl"
        good = (GOOD_RECORD + "\n").encode() * (10 * BLOCK)
        path.write_bytes(good + b'{"f": [0.5, 0.5], "h": 0.5, "y": "\xff"}\n')
        assert len(good) > osls_io._SCAN_BYTES
        with pytest.raises(ValidationError, match="not UTF-8"):
            osls_io.read_records(path)
        assert pools and all(pools)

    @pytest.mark.parametrize("name,header", [("t.jsonl", None), ("t.csv", "f1,f2,h,y")])
    @pytest.mark.parametrize("before", POSITIONS)
    def test_not_utf8_names_line_and_offset(self, tmp_path, monkeypatch, pools, name, header,
                                            before):
        # Blank lines, CRLF line ends, multi-byte characters and a U+2028, which
        # ends no line, come before the bad byte, three bytes into its line.
        good = GOOD_RECORD if header is None else GOOD_CSV
        head = ("" if header is None else header + "\r\n") + "\u2028\n" + (good + "\r\n") * before
        bad = good.encode()[:3] + b"\xe9" + good.encode()[3:] + b"\n"
        path = tmp_path / name
        path.write_bytes(head.encode() + bad + (good + "\n").encode() * 3)
        line = head.count("\n") + 1
        offset = len(head.encode()) + 3
        expected = (f"{path}: line {line}: not UTF-8 text: byte 0xe9 at offset {offset} "
                    "(invalid continuation byte)")
        read = osls_io.read_records
        for read in (read, partial(_in_process, monkeypatch, read)):
            with pytest.raises(ValidationError) as err:
                read(path)
            assert str(err.value) == expected

    @pytest.mark.parametrize("text", ['{"a": NaN}', '{"a": [Infinity]}', '{"a": 1e400}', "{"])
    def test_json_files(self, tmp_path, text):
        path = tmp_path / "e.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match="e.json"):
            osls_io.read_json(path)


class TestScenarioConfigs:
    @pytest.mark.parametrize("kv,means,scales", [
        # Explicit means leave radius unused; radius = 0 alone puts the ring's means together.
        ({"k": "2", "class_means": "3 0; -3 0; 0 0", "radius": "0"},
         [[3.0, 0.0], [-3.0, 0.0], [0.0, 0.0]], [1.0, 1.0, 1.0]),
        # Explicit scales leave scale unused; scale = 0 alone is no scale.
        ({"k": "2", "scale": "0", "class_scales": "1 1 2"}, None, [1.0, 1.0, 2.0]),
    ])
    def test_explicit_layout(self, kv, means, scales):
        config = osls_io.scenario_from_kv(kv)
        ring = osls_io.scenario_from_kv({"k": "2"})
        np.testing.assert_array_equal(config.class_means,
                                      ring.class_means if means is None else means)
        assert config.feature_dim == config.class_means.shape[1]
        np.testing.assert_array_equal(config.class_scales, scales)

    def test_config_keys_are_ring_config_parameters(self):
        keys = set(inspect.signature(ring_config).parameters)
        assert set(osls_io._KV_PARSERS) == keys

    def test_sweep_config_leaves_the_grid_to_run_sweep(self):
        grid = osls_io.sweep_from_kv({"k": "2", "shifts": "lt:10, lt:10", "seeds": "1 1",
                                      "r_values": "1, 1.0", "methods": "mlls, MLLS, foo"})
        assert (grid["shifts"], grid["r_values"], grid["seeds"], grid["methods"]) == (
            ["lt:10", "lt:10"], [1.0, 1.0], [1, 1], ["mlls", "MLLS", "foo"])


class TestStreams:
    """Tables read from a FIFO, as from /dev/stdin, and tables whose header is in a late range."""

    @pytest.mark.parametrize("read,name,header,row", [
        (osls_io.read_records, "t.jsonl", None, GOOD_RECORD),
        (osls_io.read_records, "t.csv", "f1,f2,h,y", GOOD_CSV),
        (osls_io.read_corrected, "c.jsonl", None, GOOD_CORRECTED),
        (osls_io.read_features, "x.csv", "x1,x2", GOOD_FEATURE),
    ])
    def test_fifo_reads_as_the_file(self, tmp_path, monkeypatch, pools, read, name, header,
                                    row):
        rows = [row] * (2 * BLOCK + 3)
        text = "\n".join(([header] if header else []) + rows[:BLOCK] + [""] + rows[BLOCK:])
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")  # no line break at the end
        expected = _columns(_in_process(monkeypatch, read, path))
        for pooled in (True, False):
            fifo = tmp_path / f"fifo{pooled}{name}"
            os.mkfifo(fifo)
            writer = feed_fifo(fifo, path)
            try:
                got = _columns(read(fifo) if pooled else _in_process(monkeypatch, read, fifo))
            finally:
                join_fifo(fifo, writer)
            assert len(got) == len(expected)
            for new, ref in zip(got, expected):
                _assert_same_bits(new, ref)
        assert len(pools) == 1 and pools[0] is None  # a stream is parsed in this process

    def test_fifo_fed_by_the_reading_process(self, tmp_path):
        # A child that feeds the FIFO from a thread of its own holds its write
        # end; a worker forked during the read would hold it too, and the read
        # would never end. Forced to two cores, as the ``pools`` fixture does.
        path, fifo = tmp_path / "t.jsonl", tmp_path / "fifo.jsonl"
        path.write_text((GOOD_RECORD + "\n") * (4 * BLOCK), encoding="utf-8")
        os.mkfifo(fifo)
        code = (
            "import os, shutil, sys, threading\n"
            "from osls import io\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def feed():\n"
            "    with open(sys.argv[1], 'rb') as src, open(sys.argv[2], 'wb') as dst:\n"
            "        shutil.copyfileobj(src, dst)\n"
            "threading.Thread(target=feed).start()\n"
            "got, ref = io.read_records(sys.argv[2]), io.read_records(sys.argv[1])\n"
            "print(all(a.tobytes() == b.tobytes() for a, b in\n"
            "          ((got.f, ref.f), (got.h, ref.h), (got.y, ref.y))), len(got))\n"
        )
        done = subprocess.run([sys.executable, "-c", code, str(path), str(fifo)], env=child_env(),
                              capture_output=True, text=True, timeout=30)
        assert (done.returncode, done.stdout) == (0, f"True {4 * BLOCK}\n"), done.stderr

    def test_fifo_names_the_bad_line(self, tmp_path, monkeypatch, pools):
        path, line = _with_bad_line(tmp_path, "t.jsonl", None, GOOD_RECORD,
                                    BAD_RECORDS["negative h"], POSITIONS[-1])
        read = osls_io.read_records
        for pooled in (True, False):
            fifo = tmp_path / f"fifo{pooled}.jsonl"
            os.mkfifo(fifo)
            writer = feed_fifo(fifo, path)
            try:
                with pytest.raises(ValidationError) as err:
                    read(fifo) if pooled else _in_process(monkeypatch, read, fifo)
            finally:
                join_fifo(fifo, writer)
            assert str(err.value) == (f"{fifo}: line {line}: "
                                      "h must lie in [-1e-09, 1.000000001]; got -0.2")

    def test_a_file_replaced_while_read(self, tmp_path, monkeypatch, pools):
        # The file at the path is replaced after the scan: the workers see
        # another file there, and the read returns the one that was scanned.
        old, new = tmp_path / "t.jsonl", tmp_path / "new.jsonl"
        old.write_text((GOOD_RECORD + "\n") * (3 * BLOCK), encoding="utf-8")
        replacement = '{"f": [0.7, 0.3], "h": 0.5, "y": 2}'
        assert len(replacement) == len(GOOD_RECORD)  # so its ranges parse, to other values
        new.write_text((replacement + "\n") * (3 * BLOCK), encoding="utf-8")
        expected = _columns(osls_io.read_records(old))
        cut = osls_io._ranges

        def cut_then_replace(handle, stream):
            yield from cut(handle, stream)
            new.replace(old)

        monkeypatch.setattr(osls_io, "_ranges", cut_then_replace)
        for new_col, ref in zip(_columns(osls_io.read_records(old)), expected):
            _assert_same_bits(new_col, ref)

    def test_header_after_blank_ranges(self, tmp_path, monkeypatch, pools):
        # More than a range of blank lines comes first, so a later range holds the header.
        rows = [GOOD_CSV] * (2 * BLOCK + 3)
        plain, late = tmp_path / "plain.csv", tmp_path / "late.csv"
        plain.write_text("\n".join(["f1,f2,h,y"] + rows) + "\n", encoding="utf-8")
        late.write_text("\n" * (BLOCK + 10) + plain.read_text(), encoding="utf-8")
        expected = _columns(osls_io.read_records(plain))
        for got in (osls_io.read_records(late),
                    _in_process(monkeypatch, osls_io.read_records, late)):
            for new, ref in zip(_columns(got), expected):
                _assert_same_bits(new, ref)
        late.write_text("\n" * (BLOCK + 10) + "f1,f2,h,label\n" + GOOD_CSV + "\n")
        with pytest.raises(ValidationError, match=f"line {BLOCK + 11}: CSV header names"):
            osls_io.read_records(late)
        late.write_text("\n" * (BLOCK + 10) + "f1,f2,h,label\n\n")
        with pytest.raises(ValidationError, match="needs a CSV header and at least one row"):
            osls_io.read_records(late)


class TestWritersRefuseWhatReadersRefuse:
    # Every corrected row a reader refuses that a writer can be given (all but a
    # missing y_hat): the writer refuses it before it opens the file.
    @pytest.mark.parametrize("ext", [".jsonl", ".csv"])
    @pytest.mark.parametrize("case", sorted(set(BAD_CORRECTED) - {"missing y_hat"}))
    def test_corrected(self, tmp_path, case, ext):
        rows = [json.loads(GOOD_CORRECTED), json.loads(BAD_CORRECTED[case])]
        g, y_hat = [row["g"] for row in rows], [row["y_hat"] for row in rows]
        y = [row.get("y", 1) for row in rows]
        fresh, kept = tmp_path / f"fresh{ext}", tmp_path / f"kept{ext}"
        kept.write_bytes(b"kept\n")
        for path in (fresh, kept):
            with pytest.raises(ValidationError, match=f"^cannot write {re.escape(str(path))}: "):
                osls_io.write_corrected(path, g, y_hat, y)
        assert not fresh.exists()
        assert kept.read_bytes() == b"kept\n"


def _write_record_set(path, f, h):
    """write_records of the columns as a RecordSet, which refuses what the writer would."""
    osls_io.write_records(path, RecordSet(f, h))


class TestWritersRefuseNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("ext", [".jsonl", ".csv"])
    def test_table_writers(self, tmp_path, bad, ext):
        values = np.full((5, 3), 0.25)
        values[3, 1] = bad
        for write, args in (
            (_write_record_set, (values[:, :2], values[:, 2])),
            (osls_io.write_corrected, (values, np.ones(5, dtype=np.int64))),
            (osls_io.write_features, (values,)),
        ):
            path = tmp_path / f"out{ext}"
            with pytest.raises(ValidationError, match="must be finite numbers; got .* at row 3$"):
                write(path, *args)
            assert not path.exists()

    @pytest.mark.parametrize("ext", [".jsonl", ".csv"])
    def test_bad_row_in_the_third_block(self, tmp_path, ext):
        # Checked a block at a time, the row named is still the first bad one
        # of the first column that has one, and a file already there is kept.
        n, bad_row = 2 * BLOCK + 5, 2 * BLOCK + 2
        values = np.full((n, 3), 0.25)
        values[bad_row, 2] = np.inf
        values[bad_row + 1, 0] = np.nan
        for write, args, row in (
            (_write_record_set, (values[:, :2], values[:, 2]), bad_row + 1),
            (osls_io.write_corrected, (values, np.ones(n, dtype=np.int64)), bad_row),
            (osls_io.write_features, (values,), bad_row),
        ):
            path = tmp_path / f"out{ext}"
            path.write_bytes(b"kept\n")
            message = f"must be finite numbers; got .* at row {row}$"
            with pytest.raises(ValidationError, match=message):
                write(path, *args)
            assert path.read_bytes() == b"kept\n"

    def test_json(self, tmp_path):
        with pytest.raises(ValidationError, match="out.json"):
            osls_io.write_json(tmp_path / "out.json", {"a": [1.0, float("nan")]})
        assert not (tmp_path / "out.json").exists()
