"""Ingest externally produced deep-network keyframe embeddings.

Running the network is out of process: any tool that writes 1024-dim
activations per keyframe in the shared feature-file formats can feed this.
Activations are used raw, with no re-normalization at load time.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import CoverageError, DuplicateKeyError, FormatError
from .featureio import FeatureTable, read_features


def load_embeddings(
    path: str | Path,
    expected: list[tuple[int, int]] | None = None,
) -> FeatureTable:
    """Read a DNN feature file of keyframe rows, 1024 values each; with a
    keyframe manifest, coverage must be exact.

    Row order never matters; duplicate (movie, keyframe) keys are rejected.
    """
    table = read_features(path)
    ids, keyframes = table.movie_id, table.keyframe_index
    if len(ids) and table.kind != "DNN":
        raise FormatError(f"{path} row 0: expected kind DNN, got {table.kind}")
    movie_level = np.flatnonzero(keyframes < 0)
    # a stable sort keeps each key's rows in file order: all but the first repeat it
    order = np.lexsort((keyframes, ids))
    repeats = order[1:][(np.diff(ids[order]) == 0) & (np.diff(keyframes[order]) == 0)]
    if len(movie_level) and not (len(repeats) and repeats.min() < movie_level[0]):
        raise FormatError(f"{path} row {movie_level[0]}: embedding record lacks a keyframe index")
    if len(repeats):
        row = repeats.min()
        key = (int(ids[row]), int(keyframes[row]))
        raise DuplicateKeyError(f"{path} row {row}: duplicate key {key}")
    if expected is not None:
        want, have = set(expected), set(zip(ids.tolist(), keyframes.tolist()))
        parts = [f"{what} keyframes {sorted(keys)}"
                 for what, keys in (("missing", want - have), ("unexpected", have - want)) if keys]
        if parts:
            raise CoverageError(f"{path}: {'; '.join(parts)}")
    return table
