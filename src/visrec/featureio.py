"""Feature vectors and their on-disk formats.

Two interchangeable formats carry feature records:

* CSV, human-readable. Movie-level files use the header
  ``movie_id,kind,v0,...,v{L-1}``; per-keyframe files insert a
  ``keyframe_index`` column after ``movie_id``.
* The toolkit's binary container (``write_arrays``), tag ``features``, attr
  ``kind``, with the columns ``movie_id``, ``keyframe_index`` (-1 marks a
  movie-level record) and ``values`` (one row per record).

A file holds records of exactly one kind. ``read_csv_table`` reads the
other headed CSV inputs (the MovieLens ratings, movies and tags files).
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DimensionError, FormatError, KindMismatchError

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


@dataclass(frozen=True)
class FeatureVector:
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise KindMismatchError(f"unknown feature kind {self.kind!r}")
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise DimensionError(f"feature values must be a vector, got shape {v.shape}")
        expected = FIXED_LENGTHS.get(self.kind)
        if expected is not None and len(v) != expected:
            raise DimensionError(
                f"{self.kind} vector must have length {expected}, got {len(v)}"
            )
        if not np.isfinite(v).all():
            raise ValueError(f"{self.kind} vector contains non-finite values")
        if self.kind in _NONNEGATIVE_KINDS and (v < 0).any():
            raise ValueError(f"{self.kind} values must be nonnegative")
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


def _check_uniform(records: list[FeatureRecord]) -> tuple[str, int]:
    if not records:
        raise ValueError("cannot write an empty feature file")
    kind = records[0].vector.kind
    length = len(records[0].vector)
    for i, rec in enumerate(records):
        if rec.vector.kind != kind:
            raise KindMismatchError(f"record {i} has kind {rec.vector.kind}, file is {kind}")
        if len(rec.vector) != length:
            raise DimensionError(f"record {i} has length {len(rec.vector)}, file is {length}")
    return kind, length


@contextmanager
def _located(where: Callable[[], str]):
    """Prefix errors raised while reading with ``where()``, the file line or
    record being read; a value a FeatureVector or ``int`` refuses is a
    FormatError."""
    try:
        yield
    except (DimensionError, KindMismatchError) as exc:
        raise type(exc)(f"{where()}: {exc}") from None
    except ValueError as exc:
        raise FormatError(f"{where()}: {exc}") from None


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

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


def write_feature_csv(path: str | Path, records: list[FeatureRecord]) -> None:
    kind, length = _check_uniform(records)
    keyed = any(r.keyframe_index is not None for r in records)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        key_cols = ["movie_id", "keyframe_index"] if keyed else ["movie_id"]
        writer.writerow(key_cols + ["kind"] + [f"v{i}" for i in range(length)])
        for rec in records:
            key = [rec.movie_id, rec.keyframe_index] if keyed else [rec.movie_id]
            writer.writerow(key + [kind] + [format(v, ".17g") for v in rec.vector.values])


def read_feature_csv(path: str | Path) -> list[FeatureRecord]:
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
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DimensionError(
                f"{path} line {lineno}: expected {length} values, got {len(row) - kind_col - 1}"
            )
        with _located(lambda: f"{path} line {lineno}"):
            movie_id = int(row[0])
            kf = int(row[1]) if keyed else None
            vec = FeatureVector(row[kind_col], row[kind_col + 1 :])
        records.append(FeatureRecord(movie_id, kf, vec))
    return records


# ---------------------------------------------------------------------------
# Binary container
# ---------------------------------------------------------------------------

CONTAINER_MAGIC = b"\x89VISREC\n"  # no text file starts with 0x89


def write_arrays(path: str | Path, tag: str, attrs: dict, **arrays) -> None:
    """Write the container every binary artifact of the toolkit uses: an 8-byte
    magic, a little-endian u32 header length, a JSON header naming the tag,
    the scalar attrs and each array's name, dtype and shape, then the arrays'
    bytes in header order, integer ones as ``<i8`` and all others ``<f8``."""
    arrays = {k: np.asarray(a) for k, a in arrays.items()}
    arrays = {k: a.astype("<i8" if a.dtype.kind in "iu" else "<f8", copy=False)
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
    return True


def read_arrays(
    path: str | Path, tag: str, attrs: dict[str, type], arrays: dict[str, str]
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container file: its attrs and read-only views of its arrays.

    ``attrs`` maps each attr name to its type and ``arrays`` each array name,
    in file order, to its dtype and a symbol per dimension (``"<f8 n n"``).
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
    sizes = [8 * math.prod(spec["shape"]) for spec in header["arrays"]]
    if len(data) != end + sum(sizes):
        raise FormatError(f"{path}: file holds {len(data)} bytes, header implies "
                          f"{end + sum(sizes)}", offset=min(len(data), end + sum(sizes)))
    out, pos = {}, end
    for spec, size in zip(header["arrays"], sizes):
        array = np.frombuffer(data, spec["dtype"], size // 8, pos)
        out[spec["name"]] = array.reshape(spec["shape"])
        pos += size
    return header["attrs"], out


_FEATURE_ARRAYS = {"movie_id": "<i8 n", "keyframe_index": "<i8 n", "values": "<f8 n L"}


def write_feature_bin(path: str | Path, records: list[FeatureRecord]) -> None:
    kind, _ = _check_uniform(records)
    keyframes = [-1 if r.keyframe_index is None else r.keyframe_index for r in records]
    write_arrays(path, "features", {"kind": kind}, movie_id=[r.movie_id for r in records],
                 keyframe_index=keyframes, values=[r.vector.values for r in records])


def read_feature_bin(path: str | Path) -> list[FeatureRecord]:
    attrs, arrays = read_arrays(path, "features", {"kind": str}, _FEATURE_ARRAYS)
    ids, kfs, values = arrays.values()
    records = []
    with _located(lambda: f"{path} record {len(records)}"):
        for movie_id, kf, row in zip(ids.tolist(), kfs.tolist(), values):
            vector = FeatureVector(attrs["kind"], row)
            records.append(FeatureRecord(movie_id, None if kf < 0 else kf, vector))
    return records


def read_feature_file(path: str | Path) -> list[FeatureRecord]:
    """Dispatch on content: the binary container's magic, otherwise CSV."""
    with open(path, "rb") as fh:
        head = fh.read(len(CONTAINER_MAGIC))
    if head == CONTAINER_MAGIC:
        return read_feature_bin(path)
    return read_feature_csv(path)


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
                movie_id, kf = map(int, row)
            entries.append((movie_id, kf))
    return entries
