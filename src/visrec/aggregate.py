"""Collapse per-keyframe vectors into one movie-level vector."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DimensionError, EmptyInputError, KindMismatchError
from .featureio import FeatureVector


class AggregationKind(str, Enum):
    INTERSECTION = "intersection"  # elementwise minimum
    AVERAGE = "average"
    MEDIAN = "median"
    UNION = "union"  # elementwise maximum


# the average sorts each coordinate first, which costs nothing at keyframe
# counts and makes every reducer bit-identical under input permutations
_REDUCERS = {
    AggregationKind.INTERSECTION: lambda m: m.min(axis=0),
    AggregationKind.AVERAGE: lambda m: np.sort(m, axis=0).mean(axis=0),
    AggregationKind.MEDIAN: lambda m: np.median(m, axis=0),
    AggregationKind.UNION: lambda m: m.max(axis=0),
}

def aggregate(vectors: list[FeatureVector], kind: AggregationKind) -> FeatureVector:
    """Elementwise min/mean/median/max across the keyframe vectors of one movie.

    The even-count median is the midpoint of the two middle values.
    """
    if not vectors:
        raise EmptyInputError("cannot aggregate an empty vector list")
    kind = AggregationKind(kind)
    feature_kind = vectors[0].kind
    length = len(vectors[0])
    for i, v in enumerate(vectors):
        if v.kind != feature_kind:
            raise KindMismatchError(
                f"vector {i} has kind {v.kind}, aggregation started with {feature_kind}"
            )
        if len(v) != length:
            raise DimensionError(f"vector {i} has length {len(v)}, expected {length}")
    stacked = np.stack([v.values for v in vectors])
    return FeatureVector(feature_kind, _REDUCERS[kind](stacked))
