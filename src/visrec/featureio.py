"""Feature vectors and their on-disk formats.

Two interchangeable formats carry feature records:

* CSV, human-readable. Movie-level files use the header
  ``movie_id,kind,v0,...,v{L-1}``; per-keyframe files insert a
  ``keyframe_index`` column after ``movie_id``.
* A compact binary cache format: magic, kind tag, vector length, record
  count, then per record ``movie_id`` and ``keyframe_index`` as signed
  64-bit integers (-1 marks a movie-level record) followed by the values
  as little-endian 64-bit floats.

A file holds records of exactly one kind.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

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


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

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
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
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
        try:
            movie_id = int(row[0])
            kf = int(row[1]) if keyed else None
        except ValueError:
            raise FormatError(f"{path} line {lineno}: non-integer id in {row[:kind_col]}") from None
        try:
            vec = FeatureVector(row[kind_col], np.array(row[kind_col + 1 :], dtype=np.float64))
        except DimensionError as exc:
            raise DimensionError(f"{path} line {lineno}: {exc}") from None
        records.append(FeatureRecord(movie_id, kf, vec))
    return records


# ---------------------------------------------------------------------------
# Binary format
# ---------------------------------------------------------------------------

_MAGIC = b"VRFEAT1\n"
_HEADER = struct.Struct("<8s16sIQ")


def write_feature_bin(path: str | Path, records: list[FeatureRecord]) -> None:
    kind, length = _check_uniform(records)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, kind.encode().ljust(16), length, len(records)))
        for rec in records:
            kf = -1 if rec.keyframe_index is None else rec.keyframe_index
            fh.write(struct.pack("<qq", rec.movie_id, kf))
            fh.write(rec.vector.values.astype("<f8").tobytes())


def read_feature_bin(path: str | Path) -> list[FeatureRecord]:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size or not data.startswith(_MAGIC):
        raise FormatError(f"{path}: missing feature-cache magic", offset=0)
    _, kind_raw, length, count = _HEADER.unpack_from(data)
    kind = kind_raw.decode().strip()
    rec_size = 16 + 8 * length
    expected = _HEADER.size + count * rec_size
    if len(data) != expected:
        raise FormatError(
            f"{path}: file holds {len(data)} bytes, header implies {expected}",
            offset=min(len(data), expected),
        )
    records = []
    pos = _HEADER.size
    for row in range(count):
        movie_id, kf = struct.unpack_from("<qq", data, pos)
        values = np.frombuffer(data, dtype="<f8", count=length, offset=pos + 16)
        try:
            vec = FeatureVector(kind, values)
        except DimensionError as exc:
            raise DimensionError(f"{path} record {row}: {exc}") from None
        records.append(FeatureRecord(movie_id, None if kf < 0 else kf, vec))
        pos += rec_size
    return records


def read_feature_file(path: str | Path) -> list[FeatureRecord]:
    """Dispatch on content: binary cache magic, otherwise CSV."""
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
    if head == _MAGIC:
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
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != MANIFEST_HEADER:
        raise FormatError(f"{path}: unexpected manifest header")
    return [(int(r[0]), int(r[1])) for r in rows[1:] if r]
