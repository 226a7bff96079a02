"""Two-view feature fusion with regularized canonical correlation analysis.

The fitted model projects each view onto its canonical directions; the fused
descriptor is the concatenation of the two projections (length 2k), which
keeps both views rather than collapsing them. ``fuse_matrix`` is the one
implementation of the projection; ``fuse`` applies it to a single item.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    DimensionError,
    ParameterError,
    SingularityError,
)
from .featureio import FeatureVector, read_arrays, write_arrays

DEFAULT_RIDGE_FACTOR = 1e-4


@dataclass(frozen=True)
class CcaModel:
    wx: np.ndarray  # d1 x k
    wy: np.ndarray  # d2 x k
    correlations: np.ndarray  # k, descending in [0, 1]
    mean_x: np.ndarray
    mean_y: np.ndarray
    k: int
    ridge_x: float
    ridge_y: float

    @property
    def d1(self) -> int:
        return self.wx.shape[0]

    @property
    def d2(self) -> int:
        return self.wy.shape[0]


def _inv_sqrt(cov: np.ndarray, ridge: float, side: str) -> np.ndarray:
    reg = cov + ridge * np.eye(cov.shape[0])
    eigvals, eigvecs = np.linalg.eigh(reg)
    floor = max(eigvals.max(), 0.0) * 1e-12
    if eigvals.min() <= floor:
        raise SingularityError(
            f"{side} covariance is singular; pass a positive ridge to regularize"
        )
    return eigvecs @ np.diag(eigvals ** -0.5) @ eigvecs.T


def fit_cca(
    X: np.ndarray,
    Y: np.ndarray,
    k: int | None = None,
    ridge: float | None = None,
) -> CcaModel:
    """Fit CCA on row-aligned item matrices.

    ridge=None picks a scale-aware default per view,
    DEFAULT_RIDGE_FACTOR * trace(C)/d; ridge=0 demands full-rank covariances.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise DimensionError("CCA inputs must be 2-D matrices")
    if X.shape[0] != Y.shape[0]:
        raise AlignmentError(
            f"views disagree on item count: {X.shape[0]} vs {Y.shape[0]}"
        )
    n, d1 = X.shape
    d2 = Y.shape[1]
    if n < 2:
        raise ParameterError(f"CCA needs at least 2 items, got {n}")
    max_k = min(d1, d2, n - 1)
    if k is None:
        k = max_k
    if not 1 <= k <= max_k:
        raise ParameterError(f"k must lie in [1, {max_k}], got {k}")

    mean_x = X.mean(axis=0)
    mean_y = Y.mean(axis=0)
    Xc = X - mean_x
    Yc = Y - mean_y
    cxx = Xc.T @ Xc / (n - 1)
    cyy = Yc.T @ Yc / (n - 1)
    cxy = Xc.T @ Yc / (n - 1)

    if ridge is None:
        ridge_x = DEFAULT_RIDGE_FACTOR * np.trace(cxx) / d1
        ridge_y = DEFAULT_RIDGE_FACTOR * np.trace(cyy) / d2
    else:
        if ridge < 0:
            raise ParameterError(f"ridge must be nonnegative, got {ridge}")
        ridge_x = ridge_y = float(ridge)

    wx_white = _inv_sqrt(cxx, ridge_x, "X")
    wy_white = _inv_sqrt(cyy, ridge_y, "Y")
    u, d, vt = np.linalg.svd(wx_white @ cxy @ wy_white)
    wx = wx_white @ u[:, :k]
    wy = wy_white @ vt[:k].T
    # deterministic sign: dominant coefficient of each wx column positive
    for j in range(k):
        pivot = np.abs(wx[:, j]).argmax()
        if wx[pivot, j] < 0:
            wx[:, j] = -wx[:, j]
            wy[:, j] = -wy[:, j]
    return CcaModel(
        wx=wx,
        wy=wy,
        correlations=d[:k].copy(),
        mean_x=mean_x,
        mean_y=mean_y,
        k=k,
        ridge_x=float(ridge_x),
        ridge_y=float(ridge_y),
    )


def fuse(model: CcaModel, x: np.ndarray, y: np.ndarray) -> FeatureVector:
    """Project (x, y) onto the canonical directions; output length is 2k."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (model.d1,):
        raise DimensionError(f"x has shape {x.shape}, model expects ({model.d1},)")
    if y.shape != (model.d2,):
        raise DimensionError(f"y has shape {y.shape}, model expects ({model.d2},)")
    return FeatureVector("FUSED", fuse_matrix(model, x[None], y[None])[0])


def fuse_matrix(model: CcaModel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Project aligned item rows of both views; one fused row (length 2k) per item."""
    if X.shape[1] != model.d1 or Y.shape[1] != model.d2:
        raise DimensionError("matrix widths do not match the model")
    if X.shape[0] != Y.shape[0]:
        raise AlignmentError("views disagree on item count")
    px = (X - model.mean_x) @ model.wx
    py = (Y - model.mean_y) @ model.wy
    return np.hstack([px, py])


# ---------------------------------------------------------------------------
# Serialization: a "cca" container file (see featureio)
# ---------------------------------------------------------------------------

_CCA_ARRAYS = {"mean_x": "<f8 d1", "mean_y": "<f8 d2", "correlations": "<f8 k",
               "wx": "<f8 d1 k", "wy": "<f8 d2 k"}


def save_cca(path: str | Path, model: CcaModel) -> None:
    attrs = {"ridge_x": model.ridge_x, "ridge_y": model.ridge_y}
    write_arrays(path, "cca", attrs, **{name: getattr(model, name) for name in _CCA_ARRAYS})


def load_cca(path: str | Path) -> CcaModel:
    attrs, arrays = read_arrays(path, "cca", {"ridge_x": float, "ridge_y": float}, _CCA_ARRAYS)
    return CcaModel(**arrays, k=arrays["wx"].shape[1], **attrs)
