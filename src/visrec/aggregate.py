"""Collapse a movie's keyframe vectors into one movie-level vector."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import EmptyInputError, FormatError


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


def aggregate(values: np.ndarray, how: AggregationKind) -> np.ndarray:
    """Elementwise min/mean/median/max down the rows of a (keyframes, L)
    array: one movie's keyframe vectors, reduced to its (L,) vector.

    The even-count median is the midpoint of the two middle values. Values
    whose average or median overflows float64 raise FormatError.
    """
    if not len(values):
        raise EmptyInputError("cannot aggregate an empty vector list")
    how = AggregationKind(how)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _REDUCERS[how](values)
    if not np.isfinite(out).all():
        raise FormatError(f"the {how.value} of these vectors overflows float64")
    return out
