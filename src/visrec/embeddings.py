"""Ingest externally produced deep-network keyframe embeddings.

Running the network is out of process: any tool that writes 1024-dim
activations per keyframe in the shared feature-file formats can feed this.
Activations are used raw, with no re-normalization at load time.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import CoverageError, DuplicateKeyError, FormatError
from .featureio import read_feature_file


def load_embeddings(
    path: str | Path,
    expected: list[tuple[int, int]] | None = None,
) -> dict[tuple[int, int], np.ndarray]:
    """Read a DNN feature file into a map from (movie_id, keyframe_index) to
    its 1024-dim vector; with a keyframe manifest, coverage must be exact.

    Row order never matters; duplicate (movie, keyframe) keys are rejected.
    """
    records = read_feature_file(path)
    entries: dict[tuple[int, int], np.ndarray] = {}
    for row, rec in enumerate(records):
        if rec.vector.kind != "DNN":
            raise FormatError(
                f"{path} row {row}: expected kind DNN, got {rec.vector.kind}"
            )
        if rec.keyframe_index is None:
            raise FormatError(f"{path} row {row}: embedding record lacks a keyframe index")
        key = (rec.movie_id, rec.keyframe_index)
        if key in entries:
            raise DuplicateKeyError(f"{path} row {row}: duplicate key {key}")
        entries[key] = rec.vector.values
    if expected is not None:
        want = set(expected)
        have = set(entries)
        missing = sorted(want - have)
        extra = sorted(have - want)
        if missing or extra:
            parts = []
            if missing:
                parts.append(f"missing keyframes {missing}")
            if extra:
                parts.append(f"unexpected keyframes {extra}")
            raise CoverageError(f"{path}: {'; '.join(parts)}")
    return entries
