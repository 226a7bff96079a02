"""Feature files and the toolkit's other on-disk formats.

A feature file is one ``FeatureTable`` of a single kind, carried whole by
``read_features`` and ``write_features`` and checked once, as an array, by
``check_features``; a fault names the first bad record or line. The
toolkit writes the binary format and reads both, told apart by the magic:

* CSV, human-readable. Movie-level files use the header
  ``movie_id,kind,v0,...,v{L-1}``; per-keyframe files insert a
  ``keyframe_index`` column after ``movie_id``.
* The toolkit's binary container (``write_arrays``), tag ``features``, attr
  ``kind``, with the arrays ``movie_id``, ``keyframe_index`` and ``values``.

``FeatureVector`` is one checked row, as a descriptor returns it.
``read_csv_table`` reads the other headed CSV inputs (the MovieLens
ratings, movies and tags files), and ``parse_int64`` reads every integer id
and timestamp field of a CSV input, so a value the binary container cannot
store is refused where it is read.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionError, EmptyInputError, FormatError, KindMismatchError, ToolkitError

# Kinds with a fixed contract length; FUSED and TAG_LSA vary per model.
FIXED_LENGTHS = {
    "SCD": 256,
    "CSD": 256,
    "CLD": 120,
    "EHD": 80,
    "HTD": 62,
    "MPEG7_ALL": 774,
    "DNN": 1024,
    "GENRE": 19,
}
VARIABLE_KINDS = {"FUSED", "TAG_LSA"}
KINDS = set(FIXED_LENGTHS) | VARIABLE_KINDS

_NONNEGATIVE_KINDS = {"SCD", "CSD", "EHD"}


@contextmanager
def _located(where: Callable[[], str]):
    """Prefix errors raised while reading with ``where()``, the file line or
    record being read; a value that ``check_features`` or ``int`` refuses is
    a FormatError."""
    try:
        yield
    except (DimensionError, KindMismatchError) as exc:
        raise type(exc)(f"{where()}: {exc}") from None
    except ValueError as exc:
        raise FormatError(f"{where()}: {exc}") from None


class FeatureTable(NamedTuple):
    """Row i is the ``kind`` vector ``values[i]`` of movie ``movie_id[i]`` at
    keyframe ``keyframe_index[i]``, -1 for a movie-level row."""

    kind: str
    movie_id: np.ndarray
    keyframe_index: np.ndarray
    values: np.ndarray


def check_features(kind: str, values: np.ndarray,
                   where: Callable[[int], str] | None = None) -> None:
    """Check a (rows, L) array of ``kind`` vectors: a known kind, the kind's
    fixed length, finite values and, for SCD, CSD and EHD, no negatives. The
    array's min and max find a bad value with no temporary; only then is the
    first bad row i sought, and errors are ``_located`` at ``where(i)``."""
    i = 0
    with _located(lambda: where(i)) if where else nullcontext():
        if not len(values):
            return
        if kind not in KINDS:
            raise KindMismatchError(f"unknown feature kind {kind!r}")
        expected = FIXED_LENGTHS.get(kind, values.shape[1])
        if values.shape[1] != expected:
            raise DimensionError(f"{kind} vector must have length {expected}, "
                                 f"got {values.shape[1]}")
        nonnegative = kind in _NONNEGATIVE_KINDS
        if values.size and not (np.isfinite(values.max()) and (
                values.min() >= 0 if nonnegative else np.isfinite(values.min()))):
            finite = np.isfinite(values).all(axis=1)
            i = int(np.argmax(~finite | ((values < 0).any(axis=1) & nonnegative)))
            raise ValueError(f"{kind} vector contains non-finite values" if not finite[i]
                             else f"{kind} values must be nonnegative")


@dataclass(frozen=True)
class FeatureVector:
    kind: str
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).view()  # never freeze the caller's array
        if v.ndim != 1:
            raise DimensionError(f"feature values must be a vector, got shape {v.shape}")
        check_features(self.kind, v[None])
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class FeatureRecord:
    """One stored vector; keyframe_index is None for movie-level records."""

    movie_id: int
    keyframe_index: int | None
    vector: FeatureVector


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

_INT64 = range(-2**63, 2**63)


def parse_int64(text: str) -> int:
    """An integer field: ASCII digits with an optional leading '-'. A
    ValueError for any other text (a '+', spaces, '_' or non-ASCII digits,
    all of which ``int`` would take) and for a value outside int64."""
    if not (text.isascii()
            and (text.isdigit() or (text[:1] == "-" and text[1:].isdigit()))):
        raise ValueError(f"{text!r} is not an integer of ASCII digits")
    value = int(text)
    if value not in _INT64:
        raise ValueError(f"{text!r} lies outside the int64 range")
    return value


def _read_csv_rows(path: str | Path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: not UTF-8 CSV text ({exc})") from None


def read_csv_table(path: str | Path, columns: tuple[str, ...],
                   parse: Callable[[dict[str, str]], object]) -> list:
    """``parse`` of each nonblank data row of a CSV file with a header, given
    as a dict from column name to field. A header without one of ``columns``,
    a row too short to hold them, and a field ``parse`` refuses with a
    ValueError are FormatErrors naming the file and the column or line."""
    rows = _read_csv_rows(path)
    header = rows[0] if rows else []
    missing = [c for c in columns if c not in header]
    if missing:
        raise FormatError(f"{path}: header lacks the column(s) {', '.join(missing)}")
    width = 1 + max(header.index(c) for c in columns)
    out = []
    with _located(lambda: f"{path} line {lineno}"):
        for lineno, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            if len(row) < width:
                raise FormatError(f"{path} line {lineno}: {len(row)} field(s), "
                                  f"the header needs {width}")
            out.append(parse(dict(zip(header, row))))
    return out


def read_feature_csv(path: str | Path) -> FeatureTable:
    rows = _read_csv_rows(path)
    if not rows:
        raise FormatError(f"{path}: empty feature file")
    header = rows[0]
    if header[:1] != ["movie_id"]:
        raise FormatError(f"{path}: unexpected header {header[:3]}")
    keyed = len(header) > 1 and header[1] == "keyframe_index"
    kind_col = 2 if keyed else 1
    if len(header) <= kind_col or header[kind_col] != "kind":
        raise FormatError(f"{path}: missing kind column")
    length = len(header) - kind_col - 1
    body = [(lineno, row) for lineno, row in enumerate(rows[1:], start=2) if row]
    kind, keys, values, fault = "", [], [], None
    try:
        with _located(lambda: f"{path} line {body[len(keys)][0]}"):
            for _, row in body:
                if len(row) != len(header):
                    raise DimensionError(f"expected {length} values, got {len(row) - kind_col - 1}")
                key = (parse_int64(row[0]), parse_int64(row[1]) if keyed else -1)
                if keys and row[kind_col] != kind:
                    raise KindMismatchError(f"record has kind {row[kind_col]}, file is {kind}")
                kind = row[kind_col]
                values.append(np.array(row[kind_col + 1 :], dtype=np.float64))
                keys.append(key)
    except ToolkitError as exc:
        fault = exc
    # a row above the fault may hold a bad value, which the check names first
    values = np.array(values).reshape(len(keys), length)
    check_features(kind, values, lambda i: f"{path} line {body[i][0]}")
    if fault is not None:
        raise fault
    movie_ids, keyframes = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    return FeatureTable(kind, movie_ids, keyframes, values)


# ---------------------------------------------------------------------------
# Binary container
# ---------------------------------------------------------------------------

CONTAINER_MAGIC = b"\x89VISREC\n"  # no text file starts with 0x89


def write_arrays(path: str | Path, tag: str, attrs: dict, **arrays) -> None:
    """Write the container every binary artifact of the toolkit uses: an 8-byte
    magic, a little-endian u32 header length, a JSON header naming the tag,
    the scalar attrs and each array's name, dtype and shape, then the arrays'
    bytes in header order: uint8 ones as ``|u1``, other integer ones as
    ``<i8`` and all others ``<f8``. An array that is not numeric, such as
    integers too large for int64, is a FormatError and nothing is written."""
    arrays = {k: np.asarray(a) for k, a in arrays.items()}
    for name, a in arrays.items():
        if a.dtype.kind not in "biuf":
            raise FormatError(f"{path}: array {name!r} of dtype {a.dtype} is not numeric")
    arrays = {k: a.astype("|u1" if a.dtype == np.uint8 else "<i8" if a.dtype.kind in "iu"
                          else "<f8", copy=False)
              for k, a in arrays.items()}
    specs = [{"name": k, "dtype": a.dtype.str, "shape": list(a.shape)} for k, a in arrays.items()]
    header = json.dumps({"tag": tag, "attrs": attrs, "arrays": specs}, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC + len(header).to_bytes(4, "little") + header)
        fh.writelines(a.tobytes() for a in arrays.values())


def _header_ok(header, tag: str, attrs: dict[str, type], arrays: dict[str, str]) -> bool:
    """Whether a parsed header holds exactly the expected tag, attrs and arrays."""
    values = header["attrs"]
    # an int is a valid float; a bool is no number
    if (header["tag"] != tag or values.keys() != attrs.keys()
            or any(type(values[k]) not in {t, int if t is float else t} for k, t in attrs.items())
            or [spec["name"] for spec in header["arrays"]] != list(arrays)):
        return False
    dims: dict[str, int] = {}
    for spec in header["arrays"]:
        dtype, *symbols = arrays[spec["name"]].split()
        if spec["dtype"] != dtype or len(spec["shape"]) != len(symbols):
            return False
        for symbol, d in zip(symbols, spec["shape"]):
            if type(d) is not int or d < 0 or dims.setdefault(symbol, d) != d:
                return False
            if symbol.isdigit() and d != int(symbol):
                return False
    return True


def read_arrays(
    path: str | Path, tag: str, attrs: dict[str, type], arrays: dict[str, str]
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container file: its attrs and read-only views of its arrays.

    ``attrs`` maps each attr name to its type and ``arrays`` each array name,
    in file order, to its dtype and a symbol per dimension (``"<f8 n n"``);
    a digit symbol is that dimension's length (``"|u1 h w 3"``).
    Any fault raises FormatError, at offset 0 without the magic and at the
    file length when cut.
    """
    data = Path(path).read_bytes()
    start = len(CONTAINER_MAGIC) + 4
    if len(data) < start or not data.startswith(CONTAINER_MAGIC):
        raise FormatError(f"{path}: not a visrec binary file", offset=0)
    end = start + int.from_bytes(data[start - 4 : start], "little")
    if end > len(data):
        raise FormatError(f"{path}: header truncated", offset=len(data))
    try:
        header = json.loads(data[start:end])
        ok = _header_ok(header, tag, attrs, arrays)
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError):
        ok = False
    if not ok:
        raise FormatError(f"{path}: not a {tag!r} file with attrs {sorted(attrs)} and "
                          f"arrays {arrays}", offset=start)
    dtypes = [np.dtype(spec["dtype"]) for spec in header["arrays"]]
    counts = [math.prod(spec["shape"]) for spec in header["arrays"]]
    size = sum(dtype.itemsize * count for dtype, count in zip(dtypes, counts))
    if len(data) != end + size:
        raise FormatError(f"{path}: file holds {len(data)} bytes, header implies "
                          f"{end + size}", offset=min(len(data), end + size))
    out, pos = {}, end
    for spec, dtype, count in zip(header["arrays"], dtypes, counts):
        out[spec["name"]] = np.frombuffer(data, dtype, count, pos).reshape(spec["shape"])
        pos += dtype.itemsize * count
    return header["attrs"], out


_FEATURE_ARRAYS = {"movie_id": "<i8 n", "keyframe_index": "<i8 n", "values": "<f8 n L"}


def read_features(path: str | Path) -> FeatureTable:
    """The feature file at ``path``, a container by its magic and CSV
    otherwise, checked once as a whole array by ``check_features``."""
    with open(path, "rb") as fh:
        if fh.read(len(CONTAINER_MAGIC)) != CONTAINER_MAGIC:
            return read_feature_csv(path)
    attrs, arrays = read_arrays(path, "features", {"kind": str}, _FEATURE_ARRAYS)
    table = FeatureTable(attrs["kind"], **arrays)
    check_features(table.kind, table.values, lambda i: f"{path} record {i}")
    return table


def write_features(path: str | Path, table: FeatureTable) -> None:
    """Check ``table`` as ``read_features`` does, then write its container."""
    values = np.asarray(table.values, dtype=np.float64)
    if not len(values):
        raise EmptyInputError(f"{path}: cannot write an empty feature file")
    check_features(table.kind, values, lambda i: f"{path} record {i}")
    write_arrays(path, "features", {"kind": table.kind}, movie_id=table.movie_id,
                 keyframe_index=table.keyframe_index, values=values)


def write_feature_bin(path: str | Path, records: list[FeatureRecord]) -> None:
    """``write_features`` of records of one kind and length."""
    shapes = [(r.vector.kind, len(r.vector)) for r in records]
    for i, (kind, length) in enumerate(shapes):
        if kind != shapes[0][0]:
            raise KindMismatchError(f"record {i} has kind {kind}, file is {shapes[0][0]}")
        if length != shapes[0][1]:
            raise DimensionError(f"record {i} has length {length}, file is {shapes[0][1]}")
    keyframes = [-1 if r.keyframe_index is None else r.keyframe_index for r in records]
    write_features(path, FeatureTable(shapes[0][0] if records else "",
                                      np.asarray([r.movie_id for r in records]),
                                      np.asarray(keyframes), [r.vector.values for r in records]))


def read_feature_file(path: str | Path) -> list[FeatureRecord]:
    """``read_features`` as one FeatureRecord per row."""
    t = read_features(path)
    return [FeatureRecord(movie_id, None if kf < 0 else kf, FeatureVector(t.kind, row))
            for movie_id, kf, row in zip(t.movie_id.tolist(), t.keyframe_index.tolist(), t.values)]


# ---------------------------------------------------------------------------
# Keyframe manifest
# ---------------------------------------------------------------------------

MANIFEST_HEADER = ["movie_id", "keyframe_index"]


def write_keyframe_manifest(path: str | Path, entries: list[tuple[int, int]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        for movie_id, kf in entries:
            writer.writerow([movie_id, kf])


def read_keyframe_manifest(path: str | Path) -> list[tuple[int, int]]:
    rows = _read_csv_rows(path)
    if not rows or rows[0] != MANIFEST_HEADER:
        raise FormatError(f"{path}: unexpected manifest header")
    entries = []
    for lineno, row in enumerate(rows[1:], start=2):
        if row:
            with _located(lambda: f"{path} line {lineno}"):
                movie_id, kf = map(parse_int64, row)
            entries.append((movie_id, kf))
    return entries
